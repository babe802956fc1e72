package sim

import (
	"bytes"
	"fmt"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	livenode "softstate/internal/node"
	"softstate/internal/rand"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
)

// This file is the virtual-time harness for the *real* runtime: where the
// rest of internal/sim re-implements the protocols as abstract state
// machines, RunLive instantiates actual signal.Sender / signal.Receiver /
// node.Chain endpoints — goroutine read loops, sharded state tables,
// summary refresh, ack coalescing, the full wire codec — over seeded lossy
// links, and drives everything from one clock.Virtual. The paper's experiments
// (signaling-state consistency vs. loss, delay, refresh interval) thus run
// on the production code path: deterministically (same seed → identical
// LiveResult), at simulated hours of protocol time in wall milliseconds,
// with no time.Sleep anywhere.

// LiveConfig parameterizes one virtual-time run of the real stack.
type LiveConfig struct {
	// Protocol selects the mechanism bundle.
	Protocol signal.Protocol
	// Hops is the number of state-holding links: 1 runs Sender→Receiver
	// over one lossy pipe; ≥2 runs a node.Chain of Hops+1 nodes (origin,
	// Hops-1 relays, tail receiver), every link independently impaired.
	// Under Topology "ring" it is the node count of the cycle; under
	// "tree" it is the tree depth (every leaf sits Hops hops from the
	// root).
	Hops int
	// Topology selects the multi-hop wiring: "chain" (default — the
	// paper's line of relays), "ring" (a unidirectional Hops-node cycle,
	// consistency sampled where the signal arrives back at the origin),
	// or "tree" (a TreeFanout-ary distribution tree of depth Hops,
	// consistency sampled at every leaf).
	Topology string
	// TreeFanout is the per-node fan-out of a "tree" run (default 2).
	TreeFanout int
	// Keys is the number of concurrently signaled keys.
	Keys int
	// Loss and Delay impair every link, FIFO as the paper's channel is.
	Loss  float64
	Delay time.Duration
	// RefreshInterval, Timeout, Retransmit are the protocol timers
	// (defaults R = 100 ms, T = 3R, Γ = 25 ms — the paper's deployed
	// ratios, scaled so a 30 s virtual run spans hundreds of refreshes).
	RefreshInterval time.Duration
	Timeout         time.Duration
	Retransmit      time.Duration
	// SummaryRefresh and CoalesceAcks enable the RFC 2961-style batching
	// paths on every endpoint.
	SummaryRefresh bool
	CoalesceAcks   bool
	// MeanLifetime, when positive, removes each key after an exponential
	// installed lifetime; MeanGap, when positive, reinstalls it (with a
	// fresh version) an exponential gap later. Zero lifetimes make keys
	// immortal — the pure refresh-traffic regime.
	MeanLifetime time.Duration
	MeanGap      time.Duration
	// MeanFalseSignal, when positive, fires the paper's external false
	// removal signal at the tail for a random held key, exponentially
	// distributed with this mean — the failure HS must repair.
	MeanFalseSignal time.Duration
	// Duration is the virtual experiment length (default 30 s).
	Duration time.Duration
	// Seed makes the run reproducible; runs with equal seeds produce
	// byte-identical LiveResults.
	Seed uint64
	// Metrics, when non-nil, instruments every endpoint with the runtime
	// counters and latency histograms, and on 1-hop runs additionally
	// attaches the live paper-metric collector (the I and Λ gauges) to
	// the sender — the snapshot sigfig embeds in artifacts. Metrics are
	// pure observers: a run's LiveResult is identical with or without
	// them.
	Metrics *telemetry.Registry
}

func (cfg *LiveConfig) applyDefaults() error {
	if cfg.Hops <= 0 {
		cfg.Hops = 1
	}
	if cfg.Keys <= 0 {
		return fmt.Errorf("sim: live run needs Keys > 0")
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 100 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * cfg.RefreshInterval
	}
	if cfg.Retransmit <= 0 {
		cfg.Retransmit = 25 * time.Millisecond
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5057a7e
	}
	switch cfg.Topology {
	case "", "chain":
		cfg.Topology = "chain"
	case "ring":
		if cfg.Hops < 2 {
			return fmt.Errorf("sim: ring topology needs Hops ≥ 2 nodes, got %d", cfg.Hops)
		}
	case "tree":
		if cfg.TreeFanout <= 0 {
			cfg.TreeFanout = 2
		}
	default:
		return fmt.Errorf("sim: unknown topology %q (want chain, ring, or tree)", cfg.Topology)
	}
	return nil
}

// LiveResult aggregates one virtual-time run. Every field is a pure
// function of the LiveConfig, so reflect.DeepEqual across same-seed runs
// is the determinism check.
type LiveResult struct {
	Protocol signal.Protocol
	Hops     int
	Keys     int
	Loss     float64
	// Topology echoes the wiring; Leaves is the number of consistency
	// sampling points (1 for chain and ring, TreeFanout^Hops for tree).
	Topology string
	Leaves   int

	// Inconsistency is the sampled fraction of (key, leaf, time) in which
	// a sampled endpoint disagreed with the origin's intent — the live
	// counterpart of the paper's I metric (eq. 1), measured end to end
	// across all hops.
	Inconsistency       float64
	Samples             int
	InconsistentSamples int

	// Datagrams counts every datagram sent by every endpoint (both
	// directions, all hops); Rate normalizes it per key per virtual
	// second — the live counterpart of the paper's Λ.
	Datagrams int
	Rate      float64
	// Sent aggregates per-wire-type datagram counts across all endpoints.
	Sent map[string]int

	// KeyEvents counts workload transitions driven (installs + removals +
	// false-signal injections).
	KeyEvents int
	// VirtualSeconds is the simulated duration.
	VirtualSeconds float64
}

// Machinery counts the reliability/removal/probe datagrams the run sent —
// the per-message machinery pure SS does without. Notifies are excluded:
// the false-signal injector emits them for every protocol alike as part
// of the simulated external environment.
func (r LiveResult) Machinery() int {
	return r.Sent["ack"] + r.Sent["ack-batch"] + r.Sent["removal"] +
		r.Sent["removal-ack"] + r.Sent["probe"] + r.Sent["probe-ack"]
}

// signalConfig is the endpoint configuration every hop of a live run
// shares, on virtual clock v.
func (cfg LiveConfig) signalConfig(v *clock.Virtual) signal.Config {
	scfg := signal.Config{
		Protocol:        cfg.Protocol,
		RefreshInterval: cfg.RefreshInterval,
		Timeout:         cfg.Timeout,
		Retransmit:      cfg.Retransmit,
		SummaryRefresh:  cfg.SummaryRefresh,
		CoalesceAcks:    cfg.CoalesceAcks,
		Shards:          4, // per endpoint
		Clock:           v,
		Metrics:         cfg.Metrics,
	}
	if cfg.Metrics != nil {
		scfg.MetricsLabels = telemetry.Labels{
			"protocol": variant.For(cfg.Protocol).Name,
			"topology": cfg.Topology,
		}
	}
	return scfg
}

// samplePeriod is how often a live run samples consistency: twice per
// refresh interval.
func (cfg LiveConfig) samplePeriod() time.Duration { return cfg.RefreshInterval / 2 }

// linkConfig is the impairment every link of a live run shares. Each
// endpoint of the run's switch (or of the one-hop pipe) splits its own
// loss stream off this seed.
func (cfg LiveConfig) linkConfig(v *clock.Virtual) lossy.Config {
	return lossy.Config{
		Loss:  cfg.Loss,
		Delay: cfg.Delay,
		Seed:  cfg.Seed ^ 0x11ce, // distinct stream from the workload rng
		Clock: v,
	}
}

// liveStack abstracts the topologies under the one workload driver.
type liveStack struct {
	install func(key string, value []byte) error
	remove  func(key string) error
	// tails are the consistency sampling points — every endpoint whose
	// view should match the origin's intent (one for chain/ring, every
	// leaf for tree).
	tails  []func(key string) ([]byte, bool)
	inject func(key string) bool
	// stats snapshots every endpoint's counters, origin first.
	stats func() []signal.Stats
	close func()
}

// totalSent counts every datagram every endpoint has sent so far.
func (s *liveStack) totalSent() int {
	n := 0
	for _, st := range s.stats() {
		n += st.TotalSent()
	}
	return n
}

// workload is the one churn-and-sample driver of the live harness, shared
// by RunLive and RunCensusAudit: every key is installed (staggered across
// one refresh interval so wheel ticks don't all collide) and churned
// through exponential remove/reinstall cycles, the paper's false removal
// signal fires at the stack's injection point, and every Sample each
// sampling point's view of each key is compared against the origin's
// intent. All randomness comes from one rng seeded with cfg.Seed, drawn
// in callback order, so a run is a pure function of its config. It reads
// only cfg's Keys, RefreshInterval, MeanLifetime, MeanGap,
// MeanFalseSignal, Sample and Seed.
type workload struct {
	cfg   LiveConfig
	v     *clock.Virtual
	stack *liveStack
	rng   *rand.Source

	intent  [][]byte // nil = removed; the origin's truth
	version []int
	// stopped latches the workload off (callbacks already scheduled
	// return without drawing or re-arming), so a caller can run on
	// churn-free.
	stopped bool

	keyEvents, samples, inconsistent int
}

// startWorkload schedules cfg's workload against stack on v.
func startWorkload(cfg LiveConfig, v *clock.Virtual, stack *liveStack) *workload {
	w := &workload{
		cfg: cfg, v: v, stack: stack,
		rng:     rand.NewSource(cfg.Seed),
		intent:  make([][]byte, cfg.Keys),
		version: make([]int, cfg.Keys),
	}
	for k := 0; k < cfg.Keys; k++ {
		v.AfterFunc(time.Duration(k)*cfg.RefreshInterval/time.Duration(cfg.Keys),
			func() { w.install(k) })
	}
	if cfg.MeanFalseSignal > 0 {
		v.AfterFunc(w.expDelay(cfg.MeanFalseSignal), w.falseSignal)
	}
	v.AfterFunc(cfg.samplePeriod(), w.sample)
	return w
}

func flowKey(k int) string { return fmt.Sprintf("flow/%05d", k) }

func (w *workload) expDelay(mean time.Duration) time.Duration {
	return time.Duration(w.rng.Exp(mean.Seconds()) * float64(time.Second))
}

func (w *workload) install(k int) {
	if w.stopped {
		return
	}
	val := []byte(fmt.Sprintf("v%d.%d", k, w.version[k]))
	w.version[k]++
	if w.stack.install(flowKey(k), val) == nil {
		w.intent[k] = val
		w.keyEvents++
	}
	if w.cfg.MeanLifetime <= 0 {
		return
	}
	w.v.AfterFunc(w.expDelay(w.cfg.MeanLifetime), func() {
		if w.stopped || w.intent[k] == nil {
			return
		}
		if w.stack.remove(flowKey(k)) == nil {
			w.intent[k] = nil
			w.keyEvents++
		}
		if w.cfg.MeanGap > 0 {
			w.v.AfterFunc(w.expDelay(w.cfg.MeanGap), func() { w.install(k) })
		}
	})
}

// falseSignal is the hard-state failure mode: the external false removal
// signal fired against a random key, repeatedly.
func (w *workload) falseSignal() {
	if w.stopped {
		return
	}
	if w.stack.inject(flowKey(w.rng.Intn(w.cfg.Keys))) {
		w.keyEvents++
	}
	w.v.AfterFunc(w.expDelay(w.cfg.MeanFalseSignal), w.falseSignal)
}

func (w *workload) sample() {
	if w.stopped {
		return
	}
	for k, want := range w.intent {
		for _, tail := range w.stack.tails {
			got, ok := tail(flowKey(k))
			w.samples++
			if ok != (want != nil) || (ok && !bytes.Equal(got, want)) {
				w.inconsistent++
			}
		}
	}
	w.v.AfterFunc(w.cfg.samplePeriod(), w.sample)
}

// inconsistency is the sampled fraction of (key, sampling point, time) in
// which a sampling point disagreed with the origin's intent.
func (w *workload) inconsistency() float64 {
	if w.samples == 0 {
		return 0
	}
	return float64(w.inconsistent) / float64(w.samples)
}

// RunLive executes one experiment on the real runtime in virtual time.
func RunLive(cfg LiveConfig) (LiveResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return LiveResult{}, err
	}
	v := clock.NewVirtual()
	stack, err := buildLiveStack(cfg, cfg.signalConfig(v), cfg.linkConfig(v))
	if err != nil {
		return LiveResult{}, err
	}
	defer stack.close()

	w := startWorkload(cfg, v, stack)
	v.Run(cfg.Duration)

	res := LiveResult{
		Protocol: cfg.Protocol, Hops: cfg.Hops, Keys: cfg.Keys, Loss: cfg.Loss,
		Topology: cfg.Topology, Leaves: len(stack.tails),
		Inconsistency: w.inconsistency(), Samples: w.samples, InconsistentSamples: w.inconsistent,
		KeyEvents: w.keyEvents, VirtualSeconds: cfg.Duration.Seconds(),
		Sent: make(map[string]int),
	}
	for _, st := range stack.stats() {
		for typ, n := range st.Sent {
			res.Sent[typ] += n
		}
		res.Datagrams += st.TotalSent()
	}
	res.Rate = float64(res.Datagrams) / float64(cfg.Keys) / res.VirtualSeconds
	return res, nil
}

// chainStack is the workload's view of a chain (a ring is the chain whose
// tail sits at the origin).
func chainStack(c *livenode.Chain) *liveStack {
	return &liveStack{
		install: c.Install,
		remove:  c.Remove,
		tails:   []func(string) ([]byte, bool){c.Tail.Get},
		inject:  c.Tail.InjectFalseRemoval,
		stats:   c.Stats,
		close:   func() { c.Close() },
	}
}

// buildLiveStack wires the endpoints for the configured topology and hop
// count.
func buildLiveStack(cfg LiveConfig, scfg signal.Config, link lossy.Config) (*liveStack, error) {
	switch cfg.Topology {
	case "ring":
		r, err := livenode.NewRing(cfg.Hops, scfg, link)
		if err != nil {
			return nil, err
		}
		return chainStack(r.Chain), nil
	case "tree":
		t, err := livenode.NewTree(cfg.TreeFanout, cfg.Hops, scfg, link)
		if err != nil {
			return nil, err
		}
		tails := make([]func(string) ([]byte, bool), len(t.Leaves))
		for i, l := range t.Leaves {
			tails[i] = l.Get
		}
		return &liveStack{
			install: t.Install,
			remove:  t.Remove,
			tails:   tails,
			inject:  t.Leaves[0].InjectFalseRemoval,
			stats:   t.Stats,
			close:   func() { t.Close() },
		}, nil
	}
	if cfg.Hops > 1 {
		c, err := livenode.NewChain(cfg.Hops+1, scfg, link)
		if err != nil {
			return nil, err
		}
		return chainStack(c), nil
	}
	a, b, err := lossy.Pipe(link)
	if err != nil {
		return nil, err
	}
	// On the instrumented single-hop run, attach the live paper-metric
	// collector to the sender: its I and Λ gauges are the snapshot
	// sigfig embeds next to the run's sampled inconsistency. The
	// datagram supplier is late-bound (the collector registers before
	// the endpoints exist), exactly signald's wiring.
	var sentSupplier func() int64
	if cfg.Metrics != nil {
		pm := telemetry.NewPaperMetrics(telemetry.PaperConfig{
			Clock:       scfg.Clock,
			AckExpected: variant.For(cfg.Protocol).ReliableTrigger,
			Sent: func() int64 {
				if sentSupplier != nil {
					return sentSupplier()
				}
				return 0
			},
		})
		pm.Register(cfg.Metrics, scfg.MetricsLabels)
		scfg.OnEvent = signal.PaperHook(pm)
	}
	snd, err := signal.NewSender(a, b.LocalAddr(), scfg)
	if err != nil {
		return nil, err
	}
	rcfg := scfg
	rcfg.OnEvent = nil // the collector observes the sender side only
	rcv, err := signal.NewReceiver(b, rcfg)
	if err != nil {
		snd.Close()
		return nil, err
	}
	sentSupplier = func() int64 {
		return int64(snd.Stats().TotalSent() + rcv.Stats().TotalSent())
	}
	from := a.LocalAddr()
	return &liveStack{
		install: snd.Install,
		remove:  snd.Remove,
		tails:   []func(string) ([]byte, bool){func(key string) ([]byte, bool) { return rcv.GetFrom(from, key) }},
		inject:  rcv.InjectFalseRemoval,
		stats:   func() []signal.Stats { return []signal.Stats{snd.Stats(), rcv.Stats()} },
		close: func() {
			snd.Close()
			rcv.Close()
		},
	}, nil
}

// ConsistencyVsLoss sweeps the loss rate, one RunLive per point — the
// live-stack version of the paper's consistency-versus-loss figures. All
// other parameters come from base.
func ConsistencyVsLoss(base LiveConfig, losses []float64) ([]LiveResult, error) {
	out := make([]LiveResult, 0, len(losses))
	for _, p := range losses {
		cfg := base
		cfg.Loss = p
		r, err := RunLive(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunLiveVariants runs the same live experiment once per paper protocol —
// SS, SS+ER, SS+RT, SS+RTR, HS — on the real wire stack and returns the
// five results in the paper's presentation order. Every run shares base's
// workload seed, so the five protocols face byte-identical churn and the
// comparison (and its same-seed determinism) is apples to apples.
func RunLiveVariants(base LiveConfig) ([]LiveResult, error) {
	profiles := variant.All()
	out := make([]LiveResult, 0, len(profiles))
	for _, prof := range profiles {
		cfg := base
		cfg.Protocol = prof.Proto
		r, err := RunLive(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %s live run: %w", prof, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// VariantCurve is one protocol's consistency-versus-loss curve.
type VariantCurve struct {
	Protocol signal.Protocol
	Results  []LiveResult
}

// ConsistencyVsLossVariants sweeps the loss axis for all five paper
// protocols on the live stack — the paper's headline five-way comparison
// as a deterministic virtual-time experiment on real datagrams.
func ConsistencyVsLossVariants(base LiveConfig, losses []float64) ([]VariantCurve, error) {
	out := make([]VariantCurve, 0, 5)
	for _, prof := range variant.All() {
		cfg := base
		cfg.Protocol = prof.Proto
		curve, err := ConsistencyVsLoss(cfg, losses)
		if err != nil {
			return nil, fmt.Errorf("sim: %s loss sweep: %w", prof, err)
		}
		out = append(out, VariantCurve{Protocol: prof.Proto, Results: curve})
	}
	return out, nil
}
