package exp

import (
	"fmt"
	"time"

	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
)

// This file is the convergence-auditor experiment: the same churned,
// lossy chain workload measured by two independent observers. The
// auditor reads the endpoints' folds, and where they disagree their
// per-key digests, across every chain link (telemetry.RunCensus) and
// reports the fraction of (census, link, key) samples found divergent;
// the paper-metric estimator watches only the
// origin's event stream and timers. Where both can see — ack-bearing
// variants, whose loss→repair windows surface as trigger/ack gaps — the
// two stories must agree qualitatively; on ack-less variants the
// estimator is a documented lower bound (lost refreshes are invisible
// to the sender's events), which is itself part of the figure's point:
// the auditor sees divergence that end-to-end accounting cannot.

// censusSweepConfig is the audited workload: a five-hop lossy chain
// under the live sweep's churn, censused every refresh interval.
func censusSweepConfig(o Options) sim.CensusConfig {
	cfg := sim.CensusConfig{
		Hops:            5,
		Keys:            16,
		Loss:            0.15,
		Delay:           2 * time.Millisecond,
		RefreshInterval: 100 * time.Millisecond,
		Timeout:         300 * time.Millisecond,
		Retransmit:      25 * time.Millisecond,
		MeanLifetime:    3 * time.Second,
		MeanGap:         time.Second,
		Duration:        90 * time.Second,
		Seed:            o.Seed ^ 0xce5505,
	}
	if o.Quick {
		cfg.Duration = 30 * time.Second
	}
	return cfg
}

func init() {
	register(Experiment{
		ID:        "ext-census",
		Title:     "Extension: live convergence census vs event-stream estimation",
		Simulated: true,
		Description: "All five protocols on a churned five-hop chain at 15% per-link loss, " +
			"audited two ways at once: a periodic digest census across every chain link " +
			"(audited_div: divergent fraction of (census, link, key) samples; hop1_div: the " +
			"origin link alone) beside the origin's event-stream paper-metric estimate " +
			"(estimated_I) and the tail's sampled end-to-end inconsistency (sampled_I). " +
			"Reliable removal keeps audited divergence lowest, pure SS highest, matching the " +
			"sampled ordering. estimated_I is a lower bound on ack-less variants (SS, SS+ER): " +
			"lost refreshes never surface in the sender's event stream — the census reads the " +
			"divergence that end-to-end accounting misses. drained=1 records that the chain " +
			"read fully converged during the churn-free quiesce window.",
		Artifact: censusArtifact,
	})
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// snapshotChainTelemetry aggregates a chain run's registry across its
// many endpoints: a 6-node chain registers a dozen instance-labeled
// copies of every series, so the per-series snapshot live5 embeds would
// bloat the artifact with near-duplicate rows. Counters and gauges sum
// by metric name; histograms merge bucket-wise (the whole-population
// quantile) — one compact chain-wide fingerprint per instrument.
func snapshotChainTelemetry(reg *telemetry.Registry) report.TelemetrySnapshot {
	if reg == nil {
		return nil
	}
	samples := reg.Gather()
	snap := report.TelemetrySnapshot{}
	hists := map[string]bool{}
	for _, s := range samples {
		if s.Hist != nil {
			if s.Hist.Count > 0 {
				hists[s.Name] = true
				snap[s.Name+"#count"] += float64(s.Hist.Count)
			}
			continue
		}
		snap[s.Name] += s.Value
	}
	for name := range hists {
		if qs, ok := telemetry.HistogramQuantiles(samples, name, 0.50, 0.99); ok {
			snap[name+"#p50_ns"] = float64(qs[0])
			snap[name+"#p99_ns"] = float64(qs[1])
		}
	}
	return snap
}

// censusArtifact is the regression-gated form: one live frame with the
// two observers side by side per protocol, one telemetry snapshot per
// run (each run gets its own registry; metrics are pure observers), and
// the paper's qualitative ordering as the artifact's policy.
func censusArtifact(o Options) (*report.Artifact, error) {
	base := censusSweepConfig(o)
	live := report.New("Convergence census, five variants on a 5-hop chain",
		"protocol", "audited_div", "hop1_div", "estimated_I", "sampled_I", "drained")
	tel := map[string]report.TelemetrySnapshot{}
	for _, prof := range variant.All() {
		cfg := base
		cfg.Protocol = prof.Proto
		cfg.Metrics = telemetry.NewRegistry()
		cfg.TraceSampleEvery = 1
		res, err := sim.RunCensusAudit(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s census run: %w", prof, err)
		}
		live.AddRow(
			prof.Name,
			fmt.Sprintf("%.5f", res.AuditedDivergence),
			fmt.Sprintf("%.5f", res.Hop1Divergence),
			fmt.Sprintf("%.5f", res.EstimatedInconsistency),
			fmt.Sprintf("%.5f", res.Inconsistency),
			fmt.Sprintf("%d", boolInt(res.Drained)),
		)
		tel[prof.Name] = snapshotChainTelemetry(cfg.Metrics)
	}
	soft := []string{"SS", "SS+ER", "SS+RT", "SS+RTR"}
	return &report.Artifact{
		Frames:    []report.Frame{report.NewFrame(report.FrameLive, live)},
		Telemetry: tel,
		Checks: &report.Checks{
			// Virtual-clock runs are deterministic per seed; the headroom
			// covers cross-platform math-library drift shifting a handful
			// of churn instants (and with them a few census samples).
			RelTol: map[string]float64{"": 0.15},
			// HS has no refresh to repair with, so whether its one sample
			// path drains is luck (about two seeds in three do): recorded,
			// not gated. internal/sim asserts the contrast over a seed set.
			AbsTol: map[string]float64{"": 0.01, "live/drained@HS": 1},
			Orderings: []report.OrderRule{
				// Reliable removal audits cleanest among the soft variants;
				// silent-timeout SS audits dirtiest overall. The sampled
				// end-to-end measure must agree on both.
				{KeyColumn: "protocol", ValueColumn: "audited_div", LowestKey: "SS+RTR", AmongKeys: soft},
				{KeyColumn: "protocol", ValueColumn: "audited_div", HighestKey: "SS"},
				{KeyColumn: "protocol", ValueColumn: "sampled_I", LowestKey: "SS+RTR", AmongKeys: soft},
				{KeyColumn: "protocol", ValueColumn: "sampled_I", HighestKey: "SS"},
			},
		},
	}, nil
}
