package exp

import (
	"fmt"
	"time"

	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
)

// This file cross-validates the live protocol-variant layer against the
// paper's single-hop analytic models: the same five protocols run (a) on
// the real wire stack — Sender/Receiver, statetable wheels, lossy pipe,
// retransmission backoff, hard-state orphan probes — in virtual time, and
// (b) through the §III-A Markov analysis at matched parameters. The
// experiment reports both inconsistency/rate columns side by side; the
// accompanying test asserts the qualitative orderings agree.

// liveSweepConfig is the matched workload: churned keys over a lossy
// single hop with the external false-removal signal firing, sized so the
// virtual run spans many session lifetimes.
func liveSweepConfig(o Options) sim.LiveConfig {
	cfg := sim.LiveConfig{
		Hops:            1,
		Keys:            24,
		Loss:            0.15,
		Delay:           2 * time.Millisecond,
		RefreshInterval: 100 * time.Millisecond,
		Timeout:         300 * time.Millisecond,
		Retransmit:      25 * time.Millisecond,
		MeanLifetime:    3 * time.Second,
		MeanGap:         time.Second,
		MeanFalseSignal: 2 * time.Second,
		Duration:        90 * time.Second,
		Seed:            o.Seed ^ 0x11fe5,
	}
	if o.Quick {
		cfg.Duration = 30 * time.Second
	}
	return cfg
}

// analyticParams maps the live workload onto the single-hop model's
// parameters: the mean installed lifetime is the session length 1/μr,
// the per-key false-signal rate divides the injector's aggregate rate by
// the key count, and the protocol timers carry over directly. The live
// workload sends no mid-life updates, so λu = 0.
func analyticParams(cfg sim.LiveConfig) singlehop.Params {
	falseSig := 0.0
	if cfg.MeanFalseSignal > 0 {
		falseSig = 1 / (cfg.MeanFalseSignal.Seconds() * float64(cfg.Keys))
	}
	return singlehop.Params{
		UpdateRate:  0,
		RemovalRate: 1 / cfg.MeanLifetime.Seconds(),
		Delay:       cfg.Delay.Seconds(),
		Loss:        cfg.Loss,
		Refresh:     cfg.RefreshInterval.Seconds(),
		Timeout:     cfg.Timeout.Seconds(),
		Retransmit:  cfg.Retransmit.Seconds(),
		FalseSignal: falseSig,
	}
}

func init() {
	register(Experiment{
		ID:        "live5",
		Title:     "Live five-variant sweep vs single-hop analytic predictions",
		Simulated: true,
		Description: "All five protocols (SS → HS) on the real wire stack under a virtual clock — " +
			"churned keys, 15% loss, external false signals — beside the §III-A analytic " +
			"model at matched parameters. The reliable-removal variants achieve the lowest " +
			"measured inconsistency, pure SS the least per-message machinery, matching the " +
			"analytic ordering. live_rate is datagrams/key/s (all types, both directions); " +
			"analytic_rate is the paper's Λ — compare orderings, not magnitudes.",
		Artifact: live5Artifact,
	})
}

// live5Artifact is the two-frame form of the five-variant comparison:
// the analytic predictions and the live measurements as separate frames
// with recorded per-protocol deltas, one telemetry snapshot per live run
// (each run gets its own registry; metrics are pure observers), and the
// paper's qualitative ordering embedded as the artifact's regression
// policy.
func live5Artifact(o Options) (*report.Artifact, error) {
	base := liveSweepConfig(o)
	p := analyticParams(base)
	if err := p.Validate(); err != nil {
		return nil, err
	}

	ana := report.New("Single-hop analytic model at matched parameters", "protocol", "I", "rate")
	live := report.New("Five variants on the live wire stack", "protocol", "I", "rate", "machinery")
	tel := map[string]report.TelemetrySnapshot{}
	for _, prof := range variant.All() {
		cfg := base
		cfg.Protocol = prof.Proto
		cfg.Metrics = telemetry.NewRegistry()
		res, err := sim.RunLive(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s live run: %w", prof, err)
		}
		met, err := singlehop.Analyze(prof.Proto, p)
		if err != nil {
			return nil, fmt.Errorf("%s analytic: %w", prof, err)
		}
		ana.AddRow(prof.Name,
			fmt.Sprintf("%.5f", met.Inconsistency),
			fmt.Sprintf("%.4g", met.NormalizedRate))
		live.AddRow(prof.Name,
			fmt.Sprintf("%.5f", res.Inconsistency),
			fmt.Sprintf("%.4g", res.Rate),
			fmt.Sprintf("%d", res.Machinery()))
		tel[prof.Name] = snapshotTelemetry(cfg.Metrics)
	}

	anaFrame := report.NewFrame(report.FrameAnalytic, ana)
	liveFrame := report.NewFrame(report.FrameLive, live)
	soft := []string{"SS", "SS+ER", "SS+RT", "SS+RTR"}
	return &report.Artifact{
		Frames:    []report.Frame{anaFrame, liveFrame},
		Deltas:    report.ComputeDeltas(anaFrame, liveFrame, []string{"I", "rate"}),
		Telemetry: tel,
		Checks: &report.Checks{
			// The analytic frame is pure float math (default tolerance);
			// the live frame gets headroom for cross-platform math-library
			// drift shifting a handful of samples. HS's I is one sample path
			// of rare events (a sender's probe round trip lost 3 probe
			// rounds running orphans all its live state, and the notify that
			// would repair a key can be lost too): over seeds 30–59 it spans
			// 0.0035–0.026 with the code unchanged, so its bound is that
			// spread — any reordering of loss draws moves it.
			RelTol: map[string]float64{"live/I": 0.10, "live/I@HS": 0.9, "live/rate": 0.05, "live/machinery": 0.05},
			AbsTol: map[string]float64{"live/I": 0.005},
			Orderings: []report.OrderRule{
				// SS+RTR lowest I among the soft-state variants (HS can dip
				// below it — the model predicts no ordering there), SS
				// highest overall; both frames must agree.
				{KeyColumn: "protocol", ValueColumn: "I", LowestKey: "SS+RTR", AmongKeys: soft},
				{KeyColumn: "protocol", ValueColumn: "I", HighestKey: "SS"},
			},
		},
	}, nil
}
