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
// machines, RunLive instantiates actual node.Chain (or node.Tree)
// endpoints — goroutine read loops, sharded state tables,
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
	// Hops is the number of state-holding links: a node.Chain of Hops+1
	// nodes (origin, Hops-1 relays, tail receiver), every link
	// independently impaired; 1 is the paper's single-hop model. On a
	// tree it is the tree depth (every leaf sits Hops hops from the root).
	Hops int
	// TreeFanout, when positive, wires a TreeFanout-ary distribution tree
	// of depth Hops instead of a chain, consistency sampled at every leaf.
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
	// counters and latency histograms, and on 1-hop chain runs also
	// attaches the live paper-metric collector (the I and Λ gauges) to
	// the origin — the snapshot sigfig embeds in artifacts. Metrics are
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
	return nil
}

// topology names the wiring: "tree" when TreeFanout is set, else "chain".
func (cfg LiveConfig) topology() string {
	if cfg.TreeFanout > 0 {
		return "tree"
	}
	return "chain"
}

// LiveResult aggregates one virtual-time run. Every field is a pure
// function of the LiveConfig, so reflect.DeepEqual across same-seed runs
// is the determinism check.
type LiveResult struct {
	Protocol signal.Protocol
	Hops     int
	Keys     int
	Loss     float64
	// Topology names the wiring, "chain" or "tree"; Leaves is the number
	// of consistency sampling points (1 for a chain, TreeFanout^Hops for a
	// tree).
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
			"topology": cfg.topology(),
		}
	}
	return scfg
}

// samplePeriod is how often a live run samples consistency: twice per
// refresh interval.
func (cfg LiveConfig) samplePeriod() time.Duration { return cfg.RefreshInterval / 2 }

// linkConfig is the impairment every link of a live run shares. Each
// endpoint of the run's switch splits its own loss stream off this seed.
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
	// view should match the origin's intent (the tail of a chain, every
	// leaf of a tree).
	tails  []func(key string) ([]byte, bool)
	inject func(key string) bool
	// stats snapshots every endpoint's counters, origin first.
	stats func() []signal.Stats
	close func()
	// firstHop is a chain's first-hop address, the Event.Peer the
	// origin's sender events carry ("" on a tree).
	firstHop string
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
	scfg := cfg.signalConfig(v)
	// On the instrumented single-hop run the origin's paper-metric
	// collector is registered too: its I and Λ gauges are the snapshot
	// sigfig embeds next to the run's sampled inconsistency.
	var watch *originWatch
	if cfg.Metrics != nil && cfg.Hops == 1 && cfg.TreeFanout <= 0 {
		watch = watchOrigin(&scfg, cfg.Protocol)
		watch.pm.Register(cfg.Metrics, scfg.MetricsLabels)
	}
	stack, err := buildLiveStack(cfg, scfg, cfg.linkConfig(v))
	if err != nil {
		return LiveResult{}, err
	}
	defer stack.close()
	if watch != nil {
		watch.stack = stack
	}

	w := startWorkload(cfg, v, stack)
	v.Run(cfg.Duration)

	res := LiveResult{
		Protocol: cfg.Protocol, Hops: cfg.Hops, Keys: cfg.Keys, Loss: cfg.Loss,
		Topology: cfg.topology(), Leaves: len(stack.tails),
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

// originWatch is the paper-metric collector of a chain's origin link. It
// hears only the origin's sender events, those whose peer is the first
// hop, and counts every datagram of the stack. The hook must be in the
// endpoints' config before they start, while the stack (and so the first
// hop) exists only once they are built, so the caller sets stack then.
type originWatch struct {
	pm    *telemetry.PaperMetrics
	stack *liveStack
}

// watchOrigin makes the collector for a proto run and sets scfg's OnEvent
// to feed it.
func watchOrigin(scfg *signal.Config, proto signal.Protocol) *originWatch {
	w := &originWatch{}
	w.pm = telemetry.NewPaperMetrics(telemetry.PaperConfig{
		Clock:       scfg.Clock,
		AckExpected: variant.For(proto).ReliableTrigger,
		Sent: func() int64 {
			if w.stack == nil {
				return 0
			}
			return int64(w.stack.totalSent())
		},
	})
	hook := signal.PaperHook(w.pm)
	scfg.OnEvent = func(ev signal.Event) {
		if w.stack != nil && ev.Peer != nil && ev.Peer.String() == w.stack.firstHop {
			hook(ev)
		}
	}
	return w
}

// chainStack is the workload's view of a chain.
func chainStack(c *livenode.Chain) *liveStack {
	return &liveStack{
		install:  c.Install,
		remove:   c.Remove,
		tails:    []func(string) ([]byte, bool){c.Tail.Get},
		inject:   c.Tail.InjectFalseRemoval,
		stats:    c.Stats,
		close:    func() { c.Close() },
		firstHop: c.FirstHop().String(),
	}
}

// buildLiveStack wires the endpoints: a TreeFanout-ary tree of depth Hops
// when TreeFanout is set, else a chain of Hops+1 nodes.
func buildLiveStack(cfg LiveConfig, scfg signal.Config, link lossy.Config) (*liveStack, error) {
	if cfg.TreeFanout <= 0 {
		c, err := livenode.NewChain(cfg.Hops+1, scfg, link)
		if err != nil {
			return nil, err
		}
		return chainStack(c), nil
	}
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
