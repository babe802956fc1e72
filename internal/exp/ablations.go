package exp

import (
	"fmt"

	"softstate/internal/multihop"
	"softstate/internal/rand"
	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
)

// ablation parameters: a shorter session keeps the simulations fast while
// leaving every mechanism exercised many times per run.
func ablationParams() singlehop.Params {
	return singlehop.DefaultParams().WithSessionLength(300)
}

func ablationSessions(o Options) int {
	if o.Quick {
		return 400
	}
	return 3000
}

func init() {
	register(Experiment{
		ID:        "ablation-timerdist",
		Title:     "Ablation: timer distribution (deterministic vs exponential vs jitter)",
		Simulated: true,
		Description: "The analytic model approximates timers as exponential, which is harmless " +
			"for refresh/retransmit timers but catastrophic if the *state-timeout* timer is " +
			"actually randomized: a memoryless timeout races the refresh stream and fires " +
			"constantly. This table quantifies the collapse and shows uniform jitter (±50%) is " +
			"largely benign — the reason deployed protocols use T ≈ 3R deterministic.",
		Run: func(o Options) (*report.Table, error) {
			t := report.New("Timer-distribution ablation (SS and SS+ER, 1/μr = 300 s)",
				"timers", "protocol", "sim_I", "analytic_I", "sim_msgs_per_session")
			kinds := []struct {
				kind rand.TimerKind
				name string
			}{
				{rand.Deterministic, "deterministic"},
				{rand.UniformJitter, "uniform±50%"},
				{rand.Exponential, "exponential"},
			}
			for _, k := range kinds {
				for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSER} {
					res, err := sim.RunSingleHop(sim.Config{
						Protocol: proto, Params: ablationParams(),
						Sessions: ablationSessions(o), Seed: o.Seed + 11,
						Timers: k.kind,
					})
					if err != nil {
						return nil, err
					}
					ana, err := singlehop.Analyze(proto, ablationParams())
					if err != nil {
						return nil, err
					}
					t.AddRow(k.name, proto.String(),
						fmt.Sprintf("%.5f", res.Inconsistency.Mean),
						fmt.Sprintf("%.5f", ana.Inconsistency),
						fmt.Sprintf("%.1f", res.MessagesPerSession.Mean))
				}
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:        "ablation-fifo",
		Title:     "Ablation: FIFO channel vs reordering",
		Simulated: true,
		Description: "The paper assumes the signaling channel cannot reorder. With reordering " +
			"allowed (independent exponential delays), an update trigger can be overtaken by a " +
			"stale refresh, reverting the receiver until the next refresh. The effect grows " +
			"with update rate and delay; this table uses a fast-update, high-delay point to " +
			"make it visible.",
		Run: func(o Options) (*report.Table, error) {
			p := ablationParams()
			p.UpdateRate = 1.0 / 5 // aggressive updates
			p = p.WithDelay(0.5)   // long, highly variable delays
			t := report.New("FIFO ablation (SS, SS+ER; 1/λu = 5 s, D = 0.5 s)",
				"protocol", "fifo_I", "reordering_I", "penalty_pct")
			for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSER} {
				run := func(reorder bool) (sim.Result, error) {
					return sim.RunSingleHop(sim.Config{
						Protocol: proto, Params: p,
						Sessions: ablationSessions(o), Seed: o.Seed + 23,
						Timers: rand.Deterministic, AllowReorder: reorder,
					})
				}
				fifo, err := run(false)
				if err != nil {
					return nil, err
				}
				reord, err := run(true)
				if err != nil {
					return nil, err
				}
				penalty := 100 * (reord.Inconsistency.Mean - fifo.Inconsistency.Mean) /
					fifo.Inconsistency.Mean
				t.AddRow(proto.String(),
					fmt.Sprintf("%.5f", fifo.Inconsistency.Mean),
					fmt.Sprintf("%.5f", reord.Inconsistency.Mean),
					fmt.Sprintf("%.1f", penalty))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:        "ablation-notification",
		Title:     "Ablation: SS+RT timeout-removal notification",
		Simulated: true,
		Description: "SS+RT includes a notification that lets the sender repair false removals " +
			"immediately instead of waiting for the next refresh. Measured in the regime the " +
			"paper motivates it (short state-timeout, so false removals are frequent).",
		Run: func(o Options) (*report.Table, error) {
			p := ablationParams()
			p.Timeout = 6 // T close to R: false removals become common
			t := report.New("Notification ablation (SS+RT, T = 6 s, R = 5 s)",
				"variant", "sim_I", "sim_msgs_per_session")
			for _, disabled := range []bool{false, true} {
				res, err := sim.RunSingleHop(sim.Config{
					Protocol: singlehop.SSRT, Params: p,
					Sessions: ablationSessions(o), Seed: o.Seed + 31,
					Timers: rand.Deterministic, DisableNotification: disabled,
				})
				if err != nil {
					return nil, err
				}
				name := "with notification"
				if disabled {
					name = "without notification"
				}
				t.AddRow(name,
					fmt.Sprintf("%.5f", res.Inconsistency.Mean),
					fmt.Sprintf("%.1f", res.MessagesPerSession.Mean))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:        "ablation-multihop-sim",
		Title:     "Extension: multi-hop model vs event simulation",
		Simulated: true,
		Description: "The paper validates only the single-hop model by simulation; this " +
			"extension cross-checks the multi-hop chain against the path simulator " +
			"(deterministic timers, 5 hops).",
		Run: func(o Options) (*report.Table, error) {
			p := multihop.DefaultParams().WithHops(5)
			horizon := 60000.0
			runs := 4
			if o.Quick {
				horizon, runs = 8000, 2
			}
			t := report.New("Multi-hop validation (N=5)",
				"protocol", "analytic_I", "sim_I", "sim_ci95", "analytic_rate", "sim_rate")
			for _, proto := range multihop.Protocols() {
				ana, err := multihop.Analyze(proto, p)
				if err != nil {
					return nil, err
				}
				res, err := sim.RunMultiHop(sim.MultiConfig{
					Protocol: proto, Params: p,
					Horizon: horizon, Runs: runs, Seed: o.Seed + 41,
					Timers: rand.Deterministic,
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(proto.String(),
					fmt.Sprintf("%.5f", ana.Inconsistency),
					fmt.Sprintf("%.5f", res.Inconsistency.Mean),
					fmt.Sprintf("%.2g", res.Inconsistency.CI95),
					fmt.Sprintf("%.3f", ana.MsgRate),
					fmt.Sprintf("%.3f", res.MsgRate.Mean))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "ablation-cost-weight",
		Title: "Extension: best protocol vs inconsistency-cost weight",
		Description: "The paper fixes α = 10 in C = α·I + Λ; this sweep shows which protocol " +
			"wins as the application's inconsistency penalty grows, making the hard/soft " +
			"decision boundary explicit.",
		Run: func(o Options) (*report.Table, error) {
			t := report.New("Winner vs cost weight (Kazaa defaults)",
				"alpha", "best_protocol", "best_cost")
			for _, alpha := range logspace(0.01, 1000, points(o, 7, 11)) {
				best, cost, err := singlehop.BestProtocol(alpha, singlehop.DefaultParams())
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%.4g", alpha), best.String(), fmt.Sprintf("%.4g", cost))
			}
			return t, nil
		},
	})
}
