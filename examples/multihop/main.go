// Multihop: an RSVP-style bandwidth reservation must be installed at every
// router on a path (paper §III-B). This example walks the paper's
// multi-hop findings: how consistency decays hop by hop, how path length
// punishes pure soft state, and how hop-by-hop reliable triggers buy back
// almost all of hard state's consistency at a fraction of its complexity —
// then runs the same protocols *live* on a 5-hop relay chain built from
// internal/node: real goroutine endpoints, real datagrams, lossy links.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"softstate"
	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/node"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

func main() {
	virtual := flag.Bool("virtual", false,
		"run the 5-hop chain in deterministic virtual time (same -seed → byte-identical output)")
	trace := flag.Bool("trace", false,
		"with -virtual, attach the lifecycle tracer to every chain endpoint and print a deterministic trace digest")
	seed := flag.Uint64("seed", 5, "link impairment seed for the chain run")
	flag.Parse()

	p := softstate.DefaultMultihopParams() // 20 hops, 2% loss/hop, updates every 60 s

	fmt.Println("Reserving bandwidth along a 20-router path (2% loss and 30 ms per hop):")
	fmt.Println()
	fmt.Println("Per-hop staleness — the fraction of time router i holds the wrong")
	fmt.Println("reservation (paper Fig 17):")
	metrics := map[softstate.Protocol]softstate.MultihopMetrics{}
	for _, proto := range softstate.MultihopProtocols() {
		m, err := softstate.AnalyzeMultihop(proto, p)
		if err != nil {
			log.Fatal(err)
		}
		metrics[proto] = m
	}
	fmt.Printf("%6s %10s %10s %10s\n", "router", "SS", "SS+RT", "HS")
	for _, hop := range []int{1, 5, 10, 15, 20} {
		fmt.Printf("%6d %10.4f %10.4f %10.4f\n", hop,
			metrics[softstate.SS].PerHop[hop-1],
			metrics[softstate.SSRT].PerHop[hop-1],
			metrics[softstate.HS].PerHop[hop-1])
	}

	fmt.Println("\nSparkline of SS staleness across the path:")
	fmt.Printf("  %s\n", spark(metrics[softstate.SS].PerHop))

	fmt.Println("\nPath length sensitivity (paper Fig 18): end-to-end inconsistency and")
	fmt.Println("total signaling load as the path grows:")
	fmt.Printf("%6s %26s %26s\n", "hops", "inconsistency (SS/SS+RT/HS)", "msgs per sec (SS/SS+RT/HS)")
	for _, n := range []int{2, 5, 10, 20} {
		pn := p.WithHops(n)
		var is, rates []string
		for _, proto := range softstate.MultihopProtocols() {
			m, err := softstate.AnalyzeMultihop(proto, pn)
			if err != nil {
				log.Fatal(err)
			}
			is = append(is, fmt.Sprintf("%.4f", m.Inconsistency))
			rates = append(rates, fmt.Sprintf("%.2f", m.MsgRate))
		}
		fmt.Printf("%6d %26s %26s\n", n, strings.Join(is, "/"), strings.Join(rates, "/"))
	}

	fmt.Println("\nCross-check at N=5 with the event-level path simulator:")
	p5 := p.WithHops(5)
	for _, proto := range softstate.MultihopProtocols() {
		ana, err := softstate.AnalyzeMultihop(proto, p5)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := softstate.SimulateMultihop(softstate.MultihopSimConfig{
			Protocol: proto, Params: p5,
			Horizon: 20000, Runs: 2, Seed: 5,
			Timers: softstate.Deterministic,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6v analytic I = %.5f   simulated I = %v\n",
			proto, ana.Inconsistency, sim.Inconsistency)
	}

	if *virtual {
		virtualChain(*seed, *trace)
	} else {
		liveChain(*seed)
	}
}

// chainConfig is the shared 5-hop demo configuration: R = 100 ms with the
// paper's T = 3R ratio, 2% loss and 3 ms delay per link.
func chainConfig(proto softstate.Protocol, seed uint64) (signal.Config, lossy.Config) {
	cfg := signal.Config{
		Protocol:        proto,
		RefreshInterval: 100 * time.Millisecond,
		Timeout:         300 * time.Millisecond,
		Retransmit:      25 * time.Millisecond,
		Shards:          4,
	}
	link := lossy.Config{Loss: 0.02, Delay: 3 * time.Millisecond, Seed: seed}
	return cfg, link
}

// virtualChain is the deterministic replay mode: the same real 5-hop
// relay chain as liveChain — identical endpoints, wire protocol, and
// impairments — but driven by a virtual clock. Nothing sleeps, latencies
// are exact virtual times rather than wall measurements, and a fixed seed
// reproduces the run byte for byte.
func virtualChain(seed uint64, trace bool) {
	fmt.Println("\nVirtual run: the same reservation on a real 5-hop relay chain in")
	fmt.Printf("deterministic virtual time (seed %d; same seed → identical output):\n", seed)
	fmt.Printf("%8s %18s %14s %16s %10s\n",
		"proto", "install latency", "holds @ 3R", "removal clears", "datagrams")
	digests := make([]string, 0, 3)
	for _, proto := range softstate.MultihopProtocols() {
		v := clock.NewVirtual()
		cfg, link := chainConfig(proto, seed)
		cfg.Clock = v
		link.Clock = v
		var tr *telemetry.Tracer
		if trace {
			tr = telemetry.NewTracer(telemetry.TracerConfig{Capacity: 1 << 14, Clock: v})
			cfg.Trace = tr // every endpoint on the chain records into one ring
		}
		c, err := node.NewChain(6, cfg, link)
		if err != nil {
			log.Fatal(err)
		}

		const key = "reservation/video-1"
		start := v.Elapsed()
		if err := c.Install(key, []byte("10Mbps")); err != nil {
			log.Fatal(err)
		}
		install := "timeout"
		if v.RunUntil(func() bool { _, ok := c.Tail.Get(key); return ok },
			time.Millisecond, 5*time.Second) {
			install = (v.Elapsed() - start).Round(time.Millisecond).String()
		}

		v.Run(3 * cfg.RefreshInterval)
		holds := c.Holds(key)

		start = v.Elapsed()
		if err := c.Remove(key); err != nil {
			log.Fatal(err)
		}
		cleared := "timeout"
		if v.RunUntil(func() bool { return c.Holds(key) == 0 },
			time.Millisecond, 5*time.Second) {
			cleared = (v.Elapsed() - start).Round(time.Millisecond).String()
		}

		fmt.Printf("%8v %18s %10d/5 %16s %10d\n",
			proto, install, holds, cleared, totalSent(c))
		c.Close()
		if tr != nil {
			digests = append(digests, traceDigest(proto, tr))
		}
	}
	if trace {
		fmt.Println("\nLifecycle trace digest (chain-wide event multiset — itself a pure")
		fmt.Println("function of the seed, so these lines replay byte for byte):")
		for _, d := range digests {
			fmt.Println(d)
		}
	}
	fmt.Println("\nEvery number above is a pure function of the seed: the chain ran the")
	fmt.Println("production endpoints with all timers and link delays in virtual time.")
}

// traceDigest summarizes one protocol run's chain-wide trace: total
// volume, the virtual-time span, and per-kind counts. Endpoints record
// concurrently, so the digest reports the (deterministic) event multiset
// rather than an interleaving order.
func traceDigest(proto softstate.Protocol, tr *telemetry.Tracer) string {
	events := tr.Events()
	var last time.Duration
	for _, ev := range events {
		if ev.At > last {
			last = ev.At
		}
	}
	counts := tr.KindCounts()
	kinds := make([]telemetry.TraceKind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%v %d", k, counts[k]))
	}
	return fmt.Sprintf("  %-6v %4d events over %8v: %s",
		proto, len(events)+int(tr.Overwritten()), last.Round(time.Millisecond), strings.Join(parts, ", "))
}

// liveChain runs the protocols on a real 5-hop relay chain: an origin
// node, four relays, and a tail receiver, each link dropping 2% of
// datagrams. Timers are scaled down (R = 100 ms) so the demo finishes in
// seconds; the R:T ratio matches the paper's deployed defaults (T = 3R).
func liveChain(seed uint64) {
	fmt.Println("\nLive run: the same reservation on a real 5-hop relay chain")
	fmt.Println("(internal/node: one relay per router, 2% loss and 3 ms per link):")
	fmt.Printf("%8s %18s %14s %16s %10s\n",
		"proto", "install latency", "holds @ 3R", "removal clears", "datagrams")
	for _, proto := range softstate.MultihopProtocols() {
		cfg, link := chainConfig(proto, seed)
		c, err := node.NewChain(6, cfg, link)
		if err != nil {
			log.Fatal(err)
		}
		tailEvents := c.Tail.Events()

		if err := c.Install("reservation/video-1", []byte("10Mbps")); err != nil {
			log.Fatal(err)
		}
		installLatency, reached := awaitTail(tailEvents, signal.EventInstalled, 5*time.Second)
		install := "timeout"
		if reached {
			install = installLatency.Round(time.Millisecond).String()
		}

		// Let refreshes (or hard state's absence of them) carry the
		// reservation through three refresh intervals.
		time.Sleep(3 * cfg.RefreshInterval)
		holds := c.Holds("reservation/video-1")

		start := time.Now()
		if err := c.Remove("reservation/video-1"); err != nil {
			log.Fatal(err)
		}
		cleared := "timeout"
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Holds("reservation/video-1") == 0 {
				cleared = time.Since(start).Round(time.Millisecond).String()
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("%8v %18s %10d/5 %16s %10d\n",
			proto, install, holds, cleared, totalSent(c))
		c.Close()
	}
	fmt.Println("\nNote how explicit removal (HS) clears the path in one round trip per")
	fmt.Println("hop while pure soft state waits out a timeout chain — and how the")
	fmt.Println("refreshing protocols pay for that patience with steady datagrams.")
}

// totalSent counts both directions at every hop: installs/refreshes/
// removals downstream and acks/notifies/NACKs back — the reliable
// protocols' reply cost is exactly what the closing comparison is about.
func totalSent(c *node.Chain) int {
	sent := 0
	for _, st := range c.Stats() {
		sent += st.TotalSent()
	}
	return sent
}

// awaitTail waits for the first tail event of the given kind, reporting
// the elapsed time and whether the event arrived before the timeout.
func awaitTail(events <-chan signal.Event, kind signal.EventKind, timeout time.Duration) (time.Duration, bool) {
	start := time.Now()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return timeout, false
			}
			if ev.Kind == kind {
				return time.Since(start), true
			}
		case <-deadline:
			return timeout, false
		}
	}
}

// spark renders values as a unicode sparkline.
func spark(xs []float64) string {
	marks := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		return strings.Repeat(string(marks[0]), len(xs))
	}
	var b strings.Builder
	for _, x := range xs {
		i := int(x / max * float64(len(marks)-1))
		b.WriteRune(marks[i])
	}
	return b.String()
}
