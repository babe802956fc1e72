package sim

import (
	"fmt"
	"net"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	livenode "softstate/internal/node"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

// FanoutConfig parameterizes a virtual-time fan-out run: one real
// node.Node maintaining Keys keys at each of Peers receivers over an
// in-memory lossy switch, all inside one virtual clock — the 64-peer ×
// 16k-key regime of the node benchmarks, but deterministic and with the
// refresh windows simulated instead of slept.
type FanoutConfig struct {
	Peers           int
	Keys            int           // per peer
	RefreshInterval time.Duration // default 100 ms
	Timeout         time.Duration // default 3R
	Loss            float64
	Delay           time.Duration
	Duration        time.Duration // virtual run length after install; default 3R
	Seed            uint64
	// Metrics, when non-nil, instruments the node side (not the Peers
	// receivers, whose per-endpoint series would swamp a scrape) and adds
	// the virtual clock's gate-park counter. Nil runs exactly the
	// pre-telemetry hot path.
	Metrics *telemetry.Registry
}

// Every fan-out runs pure SS under summary refresh (the scaling
// configuration the node subsystem exists for) at these sizes.
const (
	fanoutSummaryMaxKeys = 64
	fanoutShards         = 16
)

func (cfg *FanoutConfig) applyDefaults() error {
	if cfg.Peers <= 0 || cfg.Keys <= 0 {
		return fmt.Errorf("sim: fan-out needs Peers and Keys > 0")
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 100 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * cfg.RefreshInterval
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * cfg.RefreshInterval
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xfa2007
	}
	return nil
}

// FanoutResult aggregates a fan-out run.
type FanoutResult struct {
	Peers, Keys int
	// Held is the total (peer, key) state held across receivers at the
	// end — Peers×Keys when refresh kept everything alive.
	Held int
	// SummaryDatagrams is how many summary refreshes the receivers took;
	// KeysRenewed is the key renewals they carried (sweep-average exact:
	// delivered datagrams × Keys / ⌈Keys/fanoutSummaryMaxKeys⌉).
	SummaryDatagrams int
	KeysRenewed      int
	// Datagrams is every datagram sent by the node (installs included).
	Datagrams int
	// KeysPerDatagram is the refresh-path reduction actually achieved:
	// key renewals delivered per summary datagram sent.
	KeysPerDatagram float64
}

// RunLiveFanout wires the node and its receivers, installs every key,
// runs Duration of virtual time, and reports how summary refresh carried
// the key population.
func RunLiveFanout(cfg FanoutConfig) (FanoutResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return FanoutResult{}, err
	}
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{
		Loss: cfg.Loss, Delay: cfg.Delay, Seed: cfg.Seed ^ 0x11ce, Clock: v,
	})
	if err != nil {
		return FanoutResult{}, err
	}
	scfg := signal.Config{
		Protocol:        signal.SS,
		RefreshInterval: cfg.RefreshInterval,
		Timeout:         cfg.Timeout,
		SummaryRefresh:  true,
		SummaryMaxKeys:  fanoutSummaryMaxKeys,
		Shards:          fanoutShards,
		Clock:           v,
	}
	// Only the node side carries instruments: Peers copies of every
	// receiver series would bury the scrape, and the node is where the
	// throughput question lives.
	ncfg := scfg
	ncfg.Metrics = cfg.Metrics
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc(telemetry.Opts{
			Name: "softstate_gate_parks_total",
			Help: "Times the virtual-time driver parked waiting for the quiesce gate.",
		}, func() float64 { return float64(v.Parks()) })
	}
	n, err := livenode.New(nw.Endpoint("node"), ncfg)
	if err != nil {
		return FanoutResult{}, err
	}
	rcvs := make([]*signal.Receiver, 0, cfg.Peers)
	defer func() {
		n.Close()
		for _, r := range rcvs {
			r.Close()
		}
	}()
	addrs := make([]net.Addr, 0, cfg.Peers)
	for p := 0; p < cfg.Peers; p++ {
		conn := nw.Endpoint(fmt.Sprintf("peer%04d", p))
		addrs = append(addrs, conn.LocalAddr())
		rcv, err := signal.NewReceiver(conn, scfg)
		if err != nil {
			return FanoutResult{}, err
		}
		rcvs = append(rcvs, rcv)
	}
	for _, addr := range addrs {
		for k := 0; k < cfg.Keys; k++ {
			if err := n.Install(addr, fmt.Sprintf("flow/%05d", k), nil); err != nil {
				return FanoutResult{}, err
			}
		}
	}
	v.Run(2 * cfg.Delay) // drain the install burst
	v.Run(cfg.Duration)

	res := FanoutResult{Peers: cfg.Peers, Keys: cfg.Keys}
	for _, r := range rcvs {
		res.Held += r.Len()
		res.SummaryDatagrams += r.Stats().Received["summary-refresh"]
	}
	// One sweep renews a peer's Keys keys in ⌈Keys/fanoutSummaryMaxKeys⌉
	// datagrams (the tail chunk is partial), so renewals per datagram is
	// the sweep average, not fanoutSummaryMaxKeys.
	chunks := (cfg.Keys + fanoutSummaryMaxKeys - 1) / fanoutSummaryMaxKeys
	res.KeysRenewed = res.SummaryDatagrams * cfg.Keys / chunks
	st := n.Stats()
	res.Datagrams = st.TotalSent()
	if sent := st.Sent["summary-refresh"]; sent > 0 {
		res.KeysPerDatagram = float64(res.KeysRenewed) / float64(sent)
	}
	return res, nil
}
