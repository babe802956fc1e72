package exp

import (
	"fmt"

	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
)

// This file extends the experiment matrix beyond the paper's axes: loss
// to 50%, chains to 20 hops, fan-out to 1024 peers, and tree/ring
// topologies — all on the live wire stack under the virtual clock, all
// registered experiments so sigfig regenerates them and CI diffs them.

// extLossPoints is the extended loss axis (the paper stops at 0.3).
func extLossPoints(o Options) []float64 {
	if o.Quick {
		return []float64{0, 0.15, 0.30, 0.50}
	}
	return []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50}
}

// extLossArtifact sweeps loss to 50% for all five protocols, live and
// analytic side by side — the consistency-vs-loss figure with both
// frames and recorded deltas.
func extLossArtifact(o Options) (*report.Artifact, error) {
	base := liveSweepConfig(o)
	base.MeanFalseSignal = 0 // isolate channel loss from the injector
	losses := extLossPoints(o)
	cols := make([]string, 0, 6)
	cols = append(cols, "loss")
	for _, prof := range variant.All() {
		cols = append(cols, prof.Name)
	}
	ana := report.New("Analytic I vs loss (to 50%)", cols...)
	live := report.New("Live I vs loss (to 50%)", cols...)
	for _, loss := range losses {
		x := fmt.Sprintf("%.2f", loss)
		arow := []string{x}
		lrow := []string{x}
		for _, prof := range variant.All() {
			cfg := base
			cfg.Protocol = prof.Proto
			cfg.Loss = loss
			res, err := sim.RunLive(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s at loss %.2f: %w", prof, loss, err)
			}
			p := analyticParams(cfg)
			if err := p.Validate(); err != nil {
				return nil, err
			}
			met, err := singlehop.Analyze(prof.Proto, p)
			if err != nil {
				return nil, fmt.Errorf("%s analytic at loss %.2f: %w", prof, loss, err)
			}
			arow = append(arow, fmt.Sprintf("%.5f", met.Inconsistency))
			lrow = append(lrow, fmt.Sprintf("%.5f", res.Inconsistency))
		}
		ana.AddRow(arow...)
		live.AddRow(lrow...)
	}
	anaFrame := report.NewFrame(report.FrameAnalytic, ana)
	liveFrame := report.NewFrame(report.FrameLive, live)
	soft := []string{"SS", "SS+ER", "SS+RT", "SS+RTR"}
	// Protocol columns appear in both frames; only the live ones get
	// drift headroom, so the tolerance keys are frame-qualified.
	rel := map[string]float64{}
	abs := map[string]float64{}
	for _, prof := range variant.All() {
		rel[report.FrameLive+"/"+prof.Name] = 0.10
		abs[report.FrameLive+"/"+prof.Name] = 0.005
	}
	// HS's I under loss is one sample path of rare events (see live5): a
	// sender's probe round trip lost 3 probe rounds running orphans
	// all its live state at once. Over seeds 30–59 it spans 0.003–0.012 at
	// 15% loss, 0.008–0.057 at 30% and 0.047–0.175 at 50% with the code
	// unchanged, so its bound is that spread.
	rel[report.FrameLive+"/HS"] = 0.9
	return &report.Artifact{
		Frames: []report.Frame{anaFrame, liveFrame},
		Deltas: report.ComputeDeltas(anaFrame, liveFrame, nil),
		Checks: &report.Checks{
			RelTol: rel,
			AbsTol: abs,
			Orderings: []report.OrderRule{
				// Past moderate loss the soft-state ordering must hold on
				// every row of both frames: SS+RTR best, SS worst. HS is
				// left out — its probe traffic degrades differently (the
				// paper's failure-detection caveat).
				{Lowest: "SS+RTR", Highest: "SS", Among: soft, MinX: f(0.10)},
			},
		},
	}, nil
}

// f returns a pointer to v (for OrderRule.MinX literals).
func f(v float64) *float64 { return &v }

// extChainHops is the extended chain axis (the paper's multihop analysis
// stops at a handful of hops).
func extChainHops(o Options) []int {
	if o.Quick {
		return []int{1, 5, 20}
	}
	return []int{1, 2, 5, 10, 15, 20}
}

// extChainArtifact measures end-to-end consistency and per-key datagram
// cost on relay chains up to 20 hops.
func extChainArtifact(o Options) (*report.Artifact, error) {
	base := liveSweepConfig(o)
	base.Keys = 12
	base.Loss = 0.10
	base.MeanFalseSignal = 0
	live := report.New("Live chains to 20 hops (10% loss per link)",
		"hops", "SS+ER_I", "SS+RTR_I", "SS+RTR_rate")
	for _, hops := range extChainHops(o) {
		row := []string{fmt.Sprintf("%d", hops)}
		for _, proto := range []struct {
			p    variant.Profile
			rate bool
		}{{variant.For(singlehop.SSER), false}, {variant.For(singlehop.SSRTR), true}} {
			cfg := base
			cfg.Protocol = proto.p.Proto
			cfg.Hops = hops
			res, err := sim.RunLive(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s %d-hop chain: %w", proto.p, hops, err)
			}
			row = append(row, fmt.Sprintf("%.5f", res.Inconsistency))
			if proto.rate {
				row = append(row, fmt.Sprintf("%.4g", res.Rate))
			}
		}
		live.AddRow(row...)
	}
	return &report.Artifact{
		Frames: []report.Frame{report.NewFrame(report.FrameLive, live)},
		Checks: &report.Checks{
			RelTol: map[string]float64{"": 0.15},
			AbsTol: map[string]float64{"": 0.01},
		},
	}, nil
}

// extFanoutPeers is the extended fan-out axis.
func extFanoutPeers(o Options) []int {
	if o.Quick {
		return []int{64, 1024}
	}
	return []int{16, 64, 256, 1024}
}

// extFanoutArtifact drives one node's summary-refresh fan-out to 1024
// peers and records the per-datagram key-renewal efficiency.
func extFanoutArtifact(o Options) (*report.Artifact, error) {
	live := report.New("Live fan-out to 1024 peers (summary refresh)",
		"peers", "held", "keys_per_datagram", "keys_renewed")
	tel := map[string]report.TelemetrySnapshot{}
	for _, peers := range extFanoutPeers(o) {
		keys := 64
		if o.Quick {
			keys = 32
		}
		reg := telemetry.NewRegistry()
		res, err := sim.RunLiveFanout(sim.FanoutConfig{
			Peers:   peers,
			Keys:    keys,
			Seed:    o.Seed ^ 0xfa9007,
			Metrics: reg,
		})
		if err != nil {
			return nil, fmt.Errorf("fan-out to %d peers: %w", peers, err)
		}
		live.AddRow(
			fmt.Sprintf("%d", peers),
			fmt.Sprintf("%d", res.Held),
			fmt.Sprintf("%.4g", res.KeysPerDatagram),
			fmt.Sprintf("%d", res.KeysRenewed),
		)
		tel[fmt.Sprintf("peers=%d", peers)] = snapshotTelemetry(reg)
	}
	return &report.Artifact{
		Frames:    []report.Frame{report.NewFrame(report.FrameLive, live)},
		Telemetry: tel,
		Checks: &report.Checks{
			RelTol: map[string]float64{"": 0.05},
		},
	}, nil
}

// extTopologyArtifact runs the same churned workload over the three
// wirings — line, cycle, distribution tree — at a matched per-link
// impairment, the axis the paper's line-topology analysis does not reach.
func extTopologyArtifact(o Options) (*report.Artifact, error) {
	base := liveSweepConfig(o)
	base.Keys = 12
	base.Loss = 0.10
	base.MeanFalseSignal = 0
	base.Protocol = singlehop.SSRTR
	runs := []struct {
		label string
		mod   func(*sim.LiveConfig)
	}{
		{"chain-3", func(c *sim.LiveConfig) { c.Hops = 3 }},
		// A 4-node ring is the chain of 5 nodes whose tail sits at the
		// origin: the signal crosses all 4 links before it is sampled.
		{"ring-4", func(c *sim.LiveConfig) { c.Hops = 4 }},
		{"tree-2x2", func(c *sim.LiveConfig) { c.Hops = 2; c.TreeFanout = 2 }},
	}
	live := report.New("Live topology comparison (SS+RTR, 10% loss per link)",
		"topology", "hops", "leaves", "I", "rate")
	for _, r := range runs {
		cfg := base
		r.mod(&cfg)
		res, err := sim.RunLive(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.label, err)
		}
		live.AddRow(
			r.label,
			fmt.Sprintf("%d", res.Hops),
			fmt.Sprintf("%d", res.Leaves),
			fmt.Sprintf("%.5f", res.Inconsistency),
			fmt.Sprintf("%.4g", res.Rate),
		)
	}
	return &report.Artifact{
		Frames: []report.Frame{report.NewFrame(report.FrameLive, live)},
		Checks: &report.Checks{
			RelTol: map[string]float64{"": 0.15},
			AbsTol: map[string]float64{"I": 0.01},
		},
	}, nil
}

func init() {
	register(Experiment{
		ID:        "ext-loss50",
		Title:     "Extension: consistency vs loss to 50%, live and analytic",
		Simulated: true,
		Description: "The paper's consistency-vs-loss figure pushed to 50% channel loss, all " +
			"five protocols, measured on the live wire stack beside the analytic model at " +
			"matched parameters. The soft-state ordering (SS+RTR best, SS worst) must hold " +
			"on every row past 10% loss in both frames; HS is excluded from the ordering — " +
			"its probe-based failure detection degrades on its own schedule.",
		Artifact: extLossArtifact,
	})
	register(Experiment{
		ID:        "ext-chain20",
		Title:     "Extension: relay chains to 20 hops",
		Simulated: true,
		Description: "End-to-end inconsistency and per-key datagram rate on live relay chains " +
			"of up to 20 hops at 10% per-link loss: each hop re-signals with its own timers, " +
			"so inconsistency compounds with depth while SS+RTR's repair keeps the long chain " +
			"converged.",
		Artifact: extChainArtifact,
	})
	register(Experiment{
		ID:        "ext-fanout1024",
		Title:     "Extension: summary-refresh fan-out to 1024 peers",
		Simulated: true,
		Description: "One node maintaining keys at up to 1024 receivers through per-peer " +
			"summary refresh: held state stays complete while the keys-per-datagram " +
			"efficiency holds at the summary batch size — the RFC 2961-style reduction " +
			"measured at three orders of magnitude of fan-out.",
		Artifact: extFanoutArtifact,
	})
	register(Experiment{
		ID:        "ext-topology",
		Title:     "Extension: chain vs ring vs tree topologies",
		Simulated: true,
		Description: "The same churned SS+RTR workload over the three wirings the topology " +
			"builders support — a 3-hop line, a 4-node cycle sampled where the signal " +
			"arrives back at its origin, and a binary tree sampled at every leaf — at " +
			"matched per-link loss.",
		Artifact: extTopologyArtifact,
	})
}
