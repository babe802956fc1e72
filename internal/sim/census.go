package sim

import (
	"fmt"
	"time"

	"softstate/internal/clock"
	livenode "softstate/internal/node"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
)

// This file runs the convergence auditor against the live chain in
// virtual time: a node.Chain under churn and loss, with a periodic
// census (telemetry.RunCensus over Chain.CensusLinks) comparing each
// hop's intended state against what the next hop actually holds. The
// run therefore measures divergence twice, independently: the auditor
// reads it from the endpoints' folds and digests, and the paper-metric estimator
// infers it from the origin's event stream — the artifact's agreement
// check is that the two observers tell the same story per protocol.

// CensusConfig parameterizes one audited chain run.
type CensusConfig struct {
	// Protocol selects the mechanism bundle.
	Protocol signal.Protocol
	// Hops is the number of state-holding links (a chain of Hops+1
	// nodes, so Hops census links). Default 1.
	Hops int
	// Keys is the number of concurrently signaled keys.
	Keys int
	// Loss, Delay, Jitter impair every link.
	Loss   float64
	Delay  time.Duration
	Jitter time.Duration
	// RefreshInterval, Timeout, Retransmit are the protocol timers
	// (defaults as LiveConfig: R = 100 ms, T = 3R, Γ = 25 ms).
	RefreshInterval time.Duration
	Timeout         time.Duration
	Retransmit      time.Duration
	// MeanLifetime and MeanGap churn keys exactly as LiveConfig does.
	MeanLifetime time.Duration
	MeanGap      time.Duration
	// CensusInterval is the audit period (default RefreshInterval).
	CensusInterval time.Duration
	// Sample is the end-to-end intent sampling period (default R/2).
	Sample time.Duration
	// Duration is the churned, measured window (default 30 s).
	Duration time.Duration
	// Quiesce is the settle window after churn and measurement stop,
	// before the final census. Silent soft-state removals cascade one
	// state-timeout per hop, so the default is (Hops+2) × Timeout.
	Quiesce time.Duration
	// Shards is the per-endpoint state-table shard count (default 4).
	Shards int
	// Seed makes the run reproducible; equal seeds produce byte-identical
	// CensusResults.
	Seed uint64
	// Metrics optionally instruments every endpoint; pure observer.
	Metrics *telemetry.Registry
	// TraceSampleEvery, when > 0, installs a shared hop-propagation
	// tracer on every endpoint sampling 1-in-N keys (1 = every key), so
	// the run populates the softstate_hop_propagation_seconds and
	// softstate_e2e_install_seconds histograms on Metrics. Pure observer:
	// results are identical with tracing off.
	TraceSampleEvery int
}

// CensusResult aggregates one audited run. Every field is a pure
// function of the CensusConfig, so reflect.DeepEqual across same-seed
// runs is the determinism check.
type CensusResult struct {
	Protocol signal.Protocol
	Hops     int
	Keys     int
	Loss     float64

	// Censuses is the number of periodic audit rounds that ran during
	// the measured window (all of them over every link).
	Censuses int
	// DivergentKeySamples totals divergent keys across all rounds and
	// links; AuditedDivergence normalizes it by Censuses × Hops × Keys —
	// the auditor's estimate of the per-link, per-key probability of
	// divergence at a random instant.
	DivergentKeySamples int
	AuditedDivergence   float64
	// Hop1Divergence is the same normalization restricted to the first
	// link — the quantity the origin's paper-metric estimator also sees.
	Hop1DivergentSamples int
	Hop1Divergence       float64
	// MaxDivergent is the worst single round's total divergent keys.
	MaxDivergent int
	// EstimatedInconsistency is the origin link's paper-metric estimate
	// (event-stream derived, no table reads) at the end of the measured
	// window — the auditor-independent observer.
	EstimatedInconsistency float64
	// Drained reports whether any census during the churn-free quiesce
	// window read fully converged. Note this is deliberately not "the
	// last census was clean": under loss, pure soft state is only ever
	// eventually consistent — a refresh-loss streak can expire a live
	// key at any instant, census included, and that divergence is real,
	// not an auditor artifact. A protocol bug (leaked or immortal state)
	// shows up as a quiesce window that never once reads converged.
	Drained bool
	// QuiesceCensuses counts the audit rounds run during the quiesce
	// window; FinalDivergent is the last round's divergent-key total.
	QuiesceCensuses int
	FinalDivergent  int

	// Inconsistency is the tail-sampled end-to-end I (as LiveResult),
	// measured during the churned window only.
	Inconsistency       float64
	Samples             int
	InconsistentSamples int

	// KeyEvents counts installs + removals driven; Datagrams counts every
	// datagram sent by every endpoint during the whole run (quiesce
	// included).
	KeyEvents int
	Datagrams int
	// VirtualSeconds is the measured (pre-quiesce) duration.
	VirtualSeconds float64
}

// RunCensusAudit executes one audited chain experiment on the real
// runtime in virtual time. The run is a LiveConfig chain run — same
// defaults, same endpoint and link configuration, same workload driver —
// with the census, the origin estimator and a churn-free quiesce window
// added.
func RunCensusAudit(cfg CensusConfig) (CensusResult, error) {
	live := LiveConfig{
		Protocol: cfg.Protocol, Hops: cfg.Hops, Keys: cfg.Keys,
		Loss: cfg.Loss, Delay: cfg.Delay, Jitter: cfg.Jitter,
		RefreshInterval: cfg.RefreshInterval, Timeout: cfg.Timeout, Retransmit: cfg.Retransmit,
		MeanLifetime: cfg.MeanLifetime, MeanGap: cfg.MeanGap,
		Duration: cfg.Duration, Sample: cfg.Sample, Shards: cfg.Shards,
		Seed: cfg.Seed, Metrics: cfg.Metrics,
	}
	if err := live.applyDefaults(); err != nil {
		return CensusResult{}, err
	}
	if cfg.CensusInterval <= 0 {
		cfg.CensusInterval = live.RefreshInterval
	}
	if cfg.Quiesce <= 0 {
		cfg.Quiesce = time.Duration(live.Hops+2) * live.Timeout
	}
	v := clock.NewVirtual()
	scfg := live.signalConfig(v)
	if cfg.TraceSampleEvery > 0 {
		scfg.Trace = telemetry.NewTracer(telemetry.TracerConfig{
			SampleEvery: uint32(cfg.TraceSampleEvery),
			Clock:       v,
		})
	}

	// The origin link's independent observer: the paper-metric estimator
	// fed from the origin sender's events only. The chain's first-hop
	// address and its counters exist only after construction, so both are
	// late-bound; the hook must be in place before the endpoints start.
	var stack *liveStack
	pm := telemetry.NewPaperMetrics(telemetry.PaperConfig{
		Clock:       v,
		AckExpected: variant.For(cfg.Protocol).ReliableTrigger,
		Sent: func() int64 {
			if stack != nil {
				return int64(stack.totalSent())
			}
			return 0
		},
	})
	var originPeer string
	hook := paperHook(pm)
	scfg.OnEvent = func(ev signal.Event) {
		if ev.Peer != nil && ev.Peer.String() == originPeer {
			hook(ev)
		}
	}

	c, err := livenode.NewChain(live.Hops+1, scfg, live.linkConfig(v))
	if err != nil {
		return CensusResult{}, err
	}
	defer c.Close()
	// The first hop's upstream address is what Chain.Install targets, and
	// the origin's sender events carry it as Event.Peer.
	originPeer = c.FirstHop().String()
	links := c.CensusLinks()
	stack = chainStack(c)

	res := CensusResult{
		Protocol: cfg.Protocol, Hops: live.Hops, Keys: live.Keys, Loss: cfg.Loss,
	}
	// Workload: RunLive's, stopped at the end of the measured window so the
	// quiesce window runs churn-free.
	w := startWorkload(live, v, stack)

	// The periodic census: every CensusInterval, audit all links and
	// accumulate the divergence counts. Census callbacks run with the
	// virtual clock held, so the digests they read are a consistent
	// snapshot of a single instant. During the quiesce window the rounds
	// keep running but only feed the drain check.
	var census func()
	census = func() {
		rep := telemetry.RunCensus(links)
		if w.stopped {
			res.QuiesceCensuses++
			res.FinalDivergent = rep.Divergent
			if rep.Converged() {
				res.Drained = true
			}
		} else if rep.Failed == 0 {
			res.Censuses++
			res.DivergentKeySamples += rep.Divergent
			res.Hop1DivergentSamples += len(rep.Links[0].Divergent)
			if rep.Divergent > res.MaxDivergent {
				res.MaxDivergent = rep.Divergent
			}
		}
		v.AfterFunc(cfg.CensusInterval, census)
	}
	v.AfterFunc(cfg.CensusInterval, census)

	v.Run(live.Duration)
	// Close the measured window before the quiesce run: the estimator and
	// the sampled I both describe the churned interval only.
	res.EstimatedInconsistency = pm.Inconsistency()
	w.stopped = true
	v.Run(cfg.Quiesce)

	if res.Censuses > 0 {
		denom := float64(res.Censuses) * float64(live.Hops) * float64(live.Keys)
		res.AuditedDivergence = float64(res.DivergentKeySamples) / denom
		res.Hop1Divergence = float64(res.Hop1DivergentSamples) /
			(float64(res.Censuses) * float64(live.Keys))
	}
	res.Inconsistency, res.Samples, res.InconsistentSamples = w.inconsistency(), w.samples, w.inconsistent
	res.KeyEvents = w.keyEvents
	res.Datagrams = stack.totalSent()
	res.VirtualSeconds = live.Duration.Seconds()
	return res, nil
}

// RunCensusVariants audits the same chain workload once per paper
// protocol, in presentation order, sharing base's seed so all five face
// byte-identical churn.
func RunCensusVariants(base CensusConfig) ([]CensusResult, error) {
	profiles := variant.All()
	out := make([]CensusResult, 0, len(profiles))
	for _, prof := range profiles {
		cfg := base
		cfg.Protocol = prof.Proto
		r, err := RunCensusAudit(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %s census run: %w", prof, err)
		}
		out = append(out, r)
	}
	return out, nil
}
