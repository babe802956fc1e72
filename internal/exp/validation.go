package exp

import (
	"fmt"

	"softstate/internal/rand"
	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
)

// simBudget returns the per-point simulated-seconds budget used to pick a
// session count: enough cycles for tight CIs without letting long-session
// sweeps explode.
func simBudget(o Options) float64 {
	if o.Quick {
		return 2e5
	}
	return 3e6
}

func sessionsFor(o Options, lifetime float64) int {
	n := int(simBudget(o) / lifetime)
	if n < 100 {
		n = 100
	}
	if n > 3000 {
		n = 3000
	}
	return n
}

// validationTable compares analytic and simulated (deterministic-timer)
// metrics over a sweep, in long form: one row per (x, protocol) with the
// analytic value, simulation mean, and 95% CI half-width. This regenerates
// the paper's Figs 11 and 12 (analytic curves vs dotted simulation curves
// with confidence intervals). useInconsistency selects I; otherwise Λ.
func validationTable(title, xName string, xs []float64, o Options,
	param func(singlehop.Params, float64) singlehop.Params, useInconsistency bool) (*report.Table, error) {
	t := report.New(title, xName, "protocol", "analytic", "sim", "sim_ci95")
	for _, x := range xs {
		p := param(singlehop.DefaultParams(), x)
		for _, proto := range singlehop.Protocols() {
			ana, err := singlehop.Analyze(proto, p)
			if err != nil {
				return nil, fmt.Errorf("exp: %s analytic at %v: %w", title, x, err)
			}
			res, err := sim.RunSingleHop(sim.Config{
				Protocol: proto,
				Params:   p,
				Sessions: sessionsFor(o, 1/p.RemovalRate),
				Seed:     o.Seed ^ uint64(proto+1)*0x9e37,
				Timers:   rand.Deterministic,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: %s simulation at %v: %w", title, x, err)
			}
			anaVal := ana.NormalizedRate
			est := res.NormalizedRate
			if useInconsistency {
				anaVal = ana.Inconsistency
				est = res.Inconsistency
			}
			t.AddRow(
				fmt.Sprintf("%.6g", x),
				proto.String(),
				fmt.Sprintf("%.6g", anaVal),
				fmt.Sprintf("%.6g", est.Mean),
				fmt.Sprintf("%.3g", est.CI95),
			)
		}
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:        "fig11a",
		Title:     "Fig 11(a): analytic vs simulated inconsistency (session-length sweep)",
		Simulated: true,
		Description: "Deterministic-timer simulation vs the exponential-timer analytic model " +
			"as 1/μr sweeps 10..10⁵ s; the paper reports <1% discrepancy in I.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(10, 1e5, points(o, 4, 6))
			return validationTable("Fig 11(a)", "lifetime_s", xs, o,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithSessionLength(x) }, true)
		},
	})

	register(Experiment{
		ID:        "fig11b",
		Title:     "Fig 11(b): analytic vs simulated message rate (session-length sweep)",
		Simulated: true,
		Description: "Λ from simulation vs analysis over the same sweep; the paper reports " +
			"5–15% discrepancy.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(10, 1e5, points(o, 4, 6))
			return validationTable("Fig 11(b)", "lifetime_s", xs, o,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithSessionLength(x) }, false)
		},
	})

	register(Experiment{
		ID:        "fig12a",
		Title:     "Fig 12(a): analytic vs simulated inconsistency (refresh-timer sweep)",
		Simulated: true,
		Description: "Deterministic-timer simulation vs analysis as R sweeps 0.1..100 s " +
			"(T = 3R); differences stay within a few percent.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.5, 100, points(o, 4, 7))
			return validationTable("Fig 12(a)", "refresh_s", xs, o,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithRefresh(x) }, true)
		},
	})

	register(Experiment{
		ID:          "fig12b",
		Title:       "Fig 12(b): analytic vs simulated message rate (refresh-timer sweep)",
		Simulated:   true,
		Description: "Λ from simulation vs analysis over the refresh sweep.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.5, 100, points(o, 4, 7))
			return validationTable("Fig 12(b)", "refresh_s", xs, o,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithRefresh(x) }, false)
		},
	})
}
