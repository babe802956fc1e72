// Command signald runs live soft/hard-state signaling endpoints over UDP
// using the internal/signal runtime — the deployable counterpart to the
// models and simulators.
//
// Modes:
//
//	signald -mode serve -addr 127.0.0.1:7413 -proto SS+ER
//	    Run a receiver (state holder); prints state changes as they happen.
//
//	signald -mode send -peer 127.0.0.1:7413 -proto SS+ER -key flow/1 -value 10Mbps -hold 30s
//	    Install a key at the receiver, hold it (refreshing), then remove it
//	    and exit.
//
//	signald -mode demo -proto HS -loss 0.3
//	    Self-contained two-endpoint demonstration over an in-memory lossy
//	    channel: install, update, false removal + repair, explicit removal.
//
//	signald -mode relay -addr 127.0.0.1:7414 -peer 127.0.0.1:7413
//	    Run a relay hop: state installed at -addr is re-signaled to the
//	    next hop at -peer, so chains of relays run the protocols live
//	    across N hops (start the serve endpoint last in the chain).
//
//	signald -mode send -peers 10.0.0.1:7413,10.0.0.2:7413 -count 100
//	    Multi-peer fan-out: one node maintains -count keys at every peer
//	    over a single socket (per-destination sessions, one summary
//	    stream per peer with -summary-refresh).
//
// The protocol is selected with -protocol (any spelling variant.Parse
// accepts, e.g. -protocol ss+rtr) or the legacy -proto; both resolve to
// a variant.Profile, the one knob that switches every mechanism (refresh,
// explicit removal, reliable trigger/removal, hard-state orphan probes).
//
// Scaling knobs: -shards sets the state-table shard count (one lock and
// one timing-wheel timer per shard), -summary-refresh batches up to
// -summary-keys key renewals into each refresh datagram (RFC 2961-style
// refresh reduction), -coalesce-acks batches a receiver's replies into
// one ack-batch datagram per peer per flush tick, and -peer-idle bounds
// the fan-out peer table by evicting idle empty sessions.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"softstate/internal/lossy"
	"softstate/internal/node"
	sig "softstate/internal/signal"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/variant"
)

func main() {
	var (
		mode     = flag.String("mode", "demo", "serve, send, relay, or demo")
		proto    = flag.String("proto", "SS+ER", "protocol: SS, SS+ER, SS+RT, SS+RTR, HS")
		protocol = flag.String("protocol", "",
			"protocol variant (ss, ss+er, ss+rt, ss+rtr, hs; any spelling variant.Parse accepts); overrides -proto")
		addr     = flag.String("addr", "127.0.0.1:7413", "listen address (serve, relay)")
		peer     = flag.String("peer", "127.0.0.1:7413", "receiver address (send); next hop (relay)")
		peers    = flag.String("peers", "", "comma-separated receiver addresses for multi-peer fan-out (send)")
		key      = flag.String("key", "demo/key", "state key (send)")
		value    = flag.String("value", "hello", "state value (send)")
		count    = flag.Int("count", 1, "keys installed per peer in fan-out mode (send with -peers)")
		hold     = flag.Duration("hold", 20*time.Second, "how long to maintain state (send)")
		refresh  = flag.Duration("refresh", 2*time.Second, "refresh interval R")
		loss     = flag.Float64("loss", 0.2, "channel loss probability (demo)")
		shards   = flag.Int("shards", 0, "state-table shard count (power of two; 0 = default)")
		peerIdle = flag.Duration("peer-idle", 0,
			"evict sender sessions idle (no keys, no traffic) this long; 0 keeps them forever")
		summary = flag.Bool("summary-refresh", false,
			"batch refreshes into summary datagrams (RFC 2961-style refresh reduction)")
		summaryKeys = flag.Int("summary-keys", 64, "max keys per summary datagram")
		coalesce    = flag.Bool("coalesce-acks", false,
			"batch receiver replies into one ack-batch datagram per peer per flush tick")
		transp = flag.String("transport", "udp",
			"wire transport: udp (one datagram per syscall), udp-batch (sendmmsg/recvmmsg batching), "+
				"or tcp (framed stream with reconnect-and-resume, for reliable variants)")
		sockets = flag.Int("sockets", 1,
			"SO_REUSEPORT socket count for -transport udp-batch (each is an independent read lane)")
		bind = flag.String("bind", "",
			"local bind address for ephemeral sockets (send, fan-out, relay downstream); "+
				"default loopback 127.0.0.1:0")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live metrics on this address: /metrics (Prometheus text, including the paper's "+
				"inconsistency and datagrams/key/s gauges), /metrics.json, /debug/vars, /debug/pprof/; "+
				"SIGUSR1 dumps a snapshot to stderr")
		census = flag.Bool("census", false,
			"run the convergence auditor: sender-side endpoints (send, relay, fan-out) audit their "+
				"peers' held state over the wire digest protocol, which every receiver answers, and "+
				"serve the live report at /debug/census on -metrics-addr (softstate_divergent_keys "+
				"gauges the latest census)")
		traceSample = flag.Int("trace-sample", 0,
			"sample 1-in-N keys for hop-propagation tracing (1 = every key, 0 = off); traced datagrams "+
				"carry origin+hop stamps feeding the hop/e2e latency histograms, and the retained event "+
				"ring is served at /debug/trace.json on -metrics-addr")
		debugFlag = flag.Bool("debug", false,
			"expose the live invariant audit: SIGUSR2 prints a CheckInvariants verdict to stderr, "+
				"and with -metrics-addr the same audit is served at /debug/invariants")
	)
	flag.Parse()

	name := *proto
	if *protocol != "" {
		name = *protocol
	}
	prof, err := variant.Parse(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "signald:", err)
		os.Exit(2)
	}
	tKind = *transp
	tOpts = transport.Options{Sockets: *sockets}
	bindAddr = *bind
	cfg := sig.Config{
		Protocol:        prof.Proto,
		Variant:         &prof,
		RefreshInterval: *refresh,
		Timeout:         3 * *refresh,
		Retransmit:      200 * time.Millisecond,
		Shards:          *shards,
		SummaryRefresh:  *summary,
		SummaryMaxKeys:  *summaryKeys,
		CoalesceAcks:    *coalesce,
		PeerIdleTimeout: *peerIdle,
	}
	auditing = *census
	if *traceSample > 0 {
		cfg.Trace = telemetry.NewTracer(telemetry.TracerConfig{
			SampleEvery: uint32(*traceSample),
		})
	}
	if *debugFlag {
		debugOn = true
		startDebug()
	}
	if *metricsAddr != "" {
		t, terr := startTelemetry(*metricsAddr, cfg.Trace)
		if terr != nil {
			fmt.Fprintln(os.Stderr, "signald:", terr)
			os.Exit(1)
		}
		tele = t
		cfg.Metrics = t.registry()
		defer t.close()
	}

	switch *mode {
	case "serve":
		if err := serve(*addr, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "signald:", err)
			os.Exit(1)
		}
	case "send":
		if *peers != "" {
			err = fanout(splitPeers(*peers), cfg, *key, []byte(*value), *count, *hold)
		} else {
			err = send(*peer, cfg, *key, []byte(*value), *hold)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "signald:", err)
			os.Exit(1)
		}
	case "relay":
		if err := relay(*addr, *peer, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "signald:", err)
			os.Exit(1)
		}
	case "demo":
		if err := demo(cfg, *loss); err != nil {
			fmt.Fprintln(os.Stderr, "signald:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "signald: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// tele is the process's live-introspection state; nil (all methods
// no-ops) unless -metrics-addr was given.
var tele *telem

// auditing is -census: sender-side endpoints run the convergence auditor.
var auditing bool

// splitPeers parses the -peers list.
func splitPeers(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func serve(addr string, cfg sig.Config) error {
	conn, err := listenConn(addr)
	if err != nil {
		return err
	}
	cfg.OnEvent = tele.paper(*cfg.Variant, "receiver", false)
	registerConn(conn, cfg.Metrics, "serve")
	rcv, err := sig.NewReceiver(conn, cfg)
	if err != nil {
		return err
	}
	defer rcv.Close()
	installAudit(rcv.CheckInvariants)
	tele.setSent(func() int64 { return rcv.SentDatagrams() + rcv.ReceivedDatagrams() })
	fmt.Printf("signald: %v receiver on %v (T=%v); Ctrl-C to stop\n",
		cfg.Protocol, conn.LocalAddr(), cfg.Timeout)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case ev, ok := <-rcv.Events():
			if !ok {
				return nil
			}
			fmt.Printf("%s  %-14s key=%q value=%q (%d keys held)\n",
				time.Now().Format("15:04:05.000"), ev.Kind, ev.Key, ev.Value, rcv.Len())
		case <-stop:
			fmt.Println("\nsignald: shutting down")
			return nil
		}
	}
}

func send(peerAddr string, cfg sig.Config, key string, value []byte, hold time.Duration) error {
	raddr, err := resolvePeer(peerAddr)
	if err != nil {
		return err
	}
	conn, err := clientConn()
	if err != nil {
		return err
	}
	cfg.OnEvent = tele.paper(*cfg.Variant, "sender", cfg.Variant.ReliableTrigger)
	registerConn(conn, cfg.Metrics, "send")
	snd, err := sig.NewSender(conn, raddr, cfg)
	if err != nil {
		return err
	}
	defer snd.Close()
	installAudit(snd.CheckInvariants)
	tele.setSent(func() int64 { return snd.SentDatagrams() + snd.ReceivedDatagrams() })
	if auditing {
		aud := telemetry.NewAuditor()
		aud.AddLink(telemetry.CensusLink{
			Name:   raddr.String(),
			Intent: snd.CensusSource("local/intent"),
			Held:   snd.CensusPeer("peer/held", 2*time.Second),
		})
		tele.setAuditor(aud, "sender", cfg.RefreshInterval)
	}
	go logEvents("sender", snd.Events())

	fmt.Printf("signald: installing %q at %v via %v, holding %v\n", key, raddr, cfg.Protocol, hold)
	if err := snd.Install(key, value); err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-time.After(hold):
	case <-stop:
		fmt.Println("\nsignald: interrupted")
	}
	if cfg.Protocol.ExplicitRemoval() {
		fmt.Println("signald: removing state explicitly")
	} else {
		fmt.Println("signald: departing silently (receiver must time the state out)")
	}
	if err := snd.Remove(key); err != nil {
		return err
	}
	time.Sleep(500 * time.Millisecond) // let reliable removal finish
	st := snd.Stats()
	fmt.Printf("signald: sent %d messages (%v)\n", st.TotalSent(), st.Sent)
	return nil
}

// relay runs one interior hop: upstream state held at addr is re-signaled
// to the next hop at nextHop.
func relay(addr, nextHop string, cfg sig.Config) error {
	next, err := resolvePeer(nextHop)
	if err != nil {
		return err
	}
	up, err := listenConn(addr)
	if err != nil {
		return err
	}
	// The downstream socket used to bind ":0" — every interface — for what
	// is almost always a loopback or single-host experiment; clientConn
	// keeps it on loopback unless -bind says otherwise.
	down, err := clientConn()
	if err != nil {
		up.Close()
		return err
	}
	cfg.OnEvent = tele.paper(*cfg.Variant, "relay", false)
	registerConn(up, cfg.Metrics, "upstream")
	registerConn(down, cfg.Metrics, "downstream")
	rly, err := node.NewRelay(up, down, next, cfg)
	if err != nil {
		up.Close()
		down.Close()
		return err
	}
	defer rly.Close()
	installAudit(rly.CheckInvariants)
	tele.setSent(func() int64 {
		rc := rly.Receiver()
		dn := rly.Downstream()
		return rc.SentDatagrams() + rc.ReceivedDatagrams() +
			dn.SentDatagrams() + dn.ReceivedDatagrams()
	})
	if auditing {
		aud := telemetry.NewAuditor()
		aud.AddLink(telemetry.CensusLink{
			Name:   next.String(),
			Intent: rly.Downstream().CensusSource("downstream/intent"),
			Held:   rly.Downstream().CensusPeer("next/held", next, 2*time.Second),
		})
		tele.setAuditor(aud, "relay", cfg.RefreshInterval)
	}
	fmt.Printf("signald: %v relay on %v → %v (T=%v); Ctrl-C to stop\n",
		cfg.Protocol, up.LocalAddr(), next, cfg.Timeout)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case ev, ok := <-rly.Receiver().Events():
			if !ok {
				return nil
			}
			fmt.Printf("%s  %-14s key=%q value=%q (%d keys held, %d relayed)\n",
				time.Now().Format("15:04:05.000"), ev.Kind, ev.Key, ev.Value,
				rly.Receiver().Len(), rly.Relayed())
		case <-stop:
			fmt.Println("\nsignald: relay shutting down")
			return nil
		}
	}
}

// fanout installs count keys at every peer from one node socket.
func fanout(peerList []string, cfg sig.Config, key string, value []byte, count int, hold time.Duration) error {
	addrs := make([]net.Addr, len(peerList))
	for i, p := range peerList {
		a, err := resolvePeer(p)
		if err != nil {
			return err
		}
		addrs[i] = a
	}
	// Fan-out's socket also used to bind ":0" on every interface.
	conn, err := clientConn()
	if err != nil {
		return err
	}
	cfg.OnEvent = tele.paper(*cfg.Variant, "node", cfg.Variant.ReliableTrigger)
	registerConn(conn, cfg.Metrics, "fanout")
	n, err := node.New(conn, cfg)
	if err != nil {
		conn.Close()
		return err
	}
	defer n.Close()
	installAudit(n.CheckInvariants)
	tele.setSent(func() int64 { return n.SentDatagrams() + n.ReceivedDatagrams() })
	go logEvents("node", n.Events())

	fmt.Printf("signald: installing %d keys at each of %d peers via %v, holding %v\n",
		count, len(addrs), cfg.Protocol, hold)
	for _, a := range addrs {
		for i := 0; i < count; i++ {
			k := key
			if count > 1 {
				k = fmt.Sprintf("%s/%d", key, i)
			}
			if err := n.Install(a, k, value); err != nil {
				return err
			}
		}
	}
	if auditing {
		// One audited link per peer: the installs above created the
		// sessions, so each peer's intent slice is addressable now.
		aud := telemetry.NewAuditor()
		for _, a := range addrs {
			if s := n.Peer(a); s != nil {
				aud.AddLink(telemetry.CensusLink{
					Name:   a.String(),
					Intent: s.CensusSource("local/intent/" + a.String()),
					Held:   n.CensusPeer("held/"+a.String(), a, 2*time.Second),
				})
			}
		}
		tele.setAuditor(aud, "node", cfg.RefreshInterval)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-time.After(hold):
	case <-stop:
		fmt.Println("\nsignald: interrupted")
	}
	for _, a := range addrs {
		for i := 0; i < count; i++ {
			k := key
			if count > 1 {
				k = fmt.Sprintf("%s/%d", key, i)
			}
			if err := n.Remove(a, k); err != nil {
				return err
			}
		}
	}
	time.Sleep(500 * time.Millisecond) // let reliable removal finish
	st := n.Stats()
	fmt.Printf("signald: sent %d datagrams across %d peers (%v)\n",
		st.TotalSent(), len(addrs), st.Sent)
	return nil
}

func demo(cfg sig.Config, loss float64) error {
	// Faster timers make the demo snappy.
	cfg.RefreshInterval = 300 * time.Millisecond
	cfg.Timeout = 900 * time.Millisecond
	cfg.Retransmit = 60 * time.Millisecond

	a, b, err := lossy.Pipe(lossy.Config{Loss: loss, Delay: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	scfg := cfg
	scfg.OnEvent = tele.paper(*cfg.Variant, "sender", cfg.Variant.ReliableTrigger)
	snd, err := sig.NewSender(a, b.LocalAddr(), scfg)
	if err != nil {
		return err
	}
	rcv, err := sig.NewReceiver(b, cfg)
	if err != nil {
		return err
	}
	defer rcv.Close()
	defer snd.Close()
	installAudit(combineAudits(
		auditPart{"sender", snd.CheckInvariants},
		auditPart{"receiver", rcv.CheckInvariants},
	))
	tele.setSent(func() int64 { return snd.SentDatagrams() + snd.ReceivedDatagrams() })
	go logEvents("sender  ", snd.Events())
	go logEvents("receiver", rcv.Events())

	fmt.Printf("demo: %v over a %.0f%%-loss channel\n", cfg.Protocol, loss*100)
	step := func(what string, f func() error) error {
		fmt.Printf("\n--- %s\n", what)
		if err := f(); err != nil {
			return err
		}
		time.Sleep(600 * time.Millisecond)
		return nil
	}
	if err := step("install flow/1 = 10Mbps", func() error {
		return snd.Install("flow/1", []byte("10Mbps"))
	}); err != nil {
		return err
	}
	if err := step("update flow/1 = 20Mbps", func() error {
		return snd.Update("flow/1", []byte("20Mbps"))
	}); err != nil {
		return err
	}
	if err := step("inject false removal (external signal misfires)", func() error {
		rcv.InjectFalseRemoval("flow/1")
		return nil
	}); err != nil {
		return err
	}
	if err := step("remove flow/1", func() error {
		return snd.Remove("flow/1")
	}); err != nil {
		return err
	}
	time.Sleep(2 * cfg.Timeout) // let silent departures expire
	ss, rs := snd.Stats(), rcv.Stats()
	fmt.Printf("\ndemo: sender sent %v; receiver sent %v; receiver holds %d keys\n",
		ss.Sent, rs.Sent, rcv.Len())
	return nil
}

func logEvents(who string, ch <-chan sig.Event) {
	for ev := range ch {
		fmt.Printf("%s  [%s] %-14s key=%q value=%q\n",
			time.Now().Format("15:04:05.000"), who, ev.Kind, ev.Key, ev.Value)
	}
}
