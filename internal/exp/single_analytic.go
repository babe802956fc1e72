package exp

import (
	"fmt"

	"softstate/internal/report"
	"softstate/internal/singlehop"
)

// protocolColumns returns the five protocol names in paper order.
func protocolColumns() []string {
	cols := make([]string, 0, 5)
	for _, p := range singlehop.Protocols() {
		cols = append(cols, p.String())
	}
	return cols
}

// sweepTable evaluates metric for every protocol across a parameter sweep.
func sweepTable(title, xName string, xs []float64, param func(singlehop.Params, float64) singlehop.Params,
	metric func(singlehop.Metrics) float64) (*report.Table, error) {
	t := report.New(title, append([]string{xName}, protocolColumns()...)...)
	for _, x := range xs {
		p := param(singlehop.DefaultParams(), x)
		row := []float64{x}
		for _, proto := range singlehop.Protocols() {
			m, err := singlehop.Analyze(proto, p)
			if err != nil {
				return nil, fmt.Errorf("exp: %s at %s=%v: %w", title, xName, x, err)
			}
			row = append(row, metric(m))
		}
		t.AddNumericRow(row...)
	}
	return t, nil
}

func inconsistency(m singlehop.Metrics) float64 { return m.Inconsistency }

func normalizedRate(m singlehop.Metrics) float64 { return m.NormalizedRate }

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table I: model transitions per protocol",
		Description: "The Figure 3 transition rates of each protocol, regenerated from the " +
			"built chains at the paper's default parameters (symbolic form and numeric rate).",
		Run: func(o Options) (*report.Table, error) {
			rows, err := singlehop.TableI(singlehop.DefaultParams())
			if err != nil {
				return nil, err
			}
			t := report.New("Table I (rates at Kazaa defaults)",
				append([]string{"transition"}, protocolColumns()...)...)
			for _, r := range rows {
				cells := []string{r.Transition}
				for _, proto := range singlehop.Protocols() {
					sym := r.Symbolic[proto]
					if sym == "-" {
						cells = append(cells, "-")
						continue
					}
					cells = append(cells, fmt.Sprintf("%s = %.4g", sym, r.Rates[proto]))
				}
				t.AddRow(cells...)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "fig4a",
		Title: "Fig 4(a): inconsistency ratio vs session length",
		Description: "I for all five protocols as the mean sender session length 1/μr sweeps " +
			"10..10⁴ s. Short sessions cluster protocols by removal mechanism; long sessions by " +
			"trigger reliability.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(10, 1e4, points(o, 7, 13))
			return sweepTable("Fig 4(a): I vs 1/μr", "lifetime_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithSessionLength(x) },
				inconsistency)
		},
	})

	register(Experiment{
		ID:    "fig4b",
		Title: "Fig 4(b): signaling message rate vs session length",
		Description: "Normalized message rate Λ = μr·E[N] over the same sweep; SS+RTR is the " +
			"most expensive, HS the cheapest.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(10, 1e4, points(o, 7, 13))
			return sweepTable("Fig 4(b): Λ vs 1/μr", "lifetime_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithSessionLength(x) },
				normalizedRate)
		},
	})

	register(Experiment{
		ID:    "fig5a",
		Title: "Fig 5(a): inconsistency ratio vs channel loss",
		Description: "I as the loss probability pl sweeps 0..0.3; reliable transmission " +
			"dominates beyond ≈5% loss.",
		Run: func(o Options) (*report.Table, error) {
			xs := linspace(0, 0.30, points(o, 7, 16))
			return sweepTable("Fig 5(a): I vs pl", "loss", xs,
				func(p singlehop.Params, x float64) singlehop.Params { p.Loss = x; return p },
				inconsistency)
		},
	})

	register(Experiment{
		ID:    "fig5b",
		Title: "Fig 5(b): inconsistency ratio vs channel delay",
		Description: "I grows ≈linearly in the one-way delay D (Γ = 4D tracks the delay); " +
			"reliable protocols have a slightly steeper slope.",
		Run: func(o Options) (*report.Table, error) {
			xs := linspace(0.02, 1.0, points(o, 7, 13))
			return sweepTable("Fig 5(b): I vs D", "delay_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithDelay(x) },
				inconsistency)
		},
	})

	register(Experiment{
		ID:    "fig6a",
		Title: "Fig 6(a): inconsistency ratio vs refresh timer",
		Description: "I as R sweeps 0.1..100 s with T = 3R; HS is flat (no refresh mechanism), " +
			"soft protocols degrade as R grows.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 100, points(o, 7, 13))
			return sweepTable("Fig 6(a): I vs R", "refresh_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithRefresh(x) },
				inconsistency)
		},
	})

	register(Experiment{
		ID:          "fig6b",
		Title:       "Fig 6(b): signaling message rate vs refresh timer",
		Description: "Λ falls ∝1/R for refresh-driven protocols; HS is flat.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 100, points(o, 7, 13))
			return sweepTable("Fig 6(b): Λ vs R", "refresh_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithRefresh(x) },
				normalizedRate)
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Fig 7: integrated cost vs refresh timer",
		Description: "C = 10·I + Λ over the R sweep: SS and SS+RT have sharp interior optima, " +
			"SS+ER is flat past its optimum, SS+RTR approaches the HS level for large R.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 100, points(o, 7, 13))
			return sweepTable("Fig 7: C = 10I + Λ vs R", "refresh_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithRefresh(x) },
				func(m singlehop.Metrics) float64 { return singlehop.IntegratedCost(10, m) })
		},
	})

	register(Experiment{
		ID:    "fig8a",
		Title: "Fig 8(a): inconsistency ratio vs state-timeout timer",
		Description: "I as T sweeps 0.1..1000 s with R fixed at 5 s: T < R is disastrous for " +
			"every soft protocol; SS/SS+ER prefer T ≈ 2R; SS+RTR keeps improving with T.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 1000, points(o, 9, 17))
			return sweepTable("Fig 8(a): I vs T", "timeout_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { p.Timeout = x; return p },
				inconsistency)
		},
	})

	register(Experiment{
		ID:    "fig8b",
		Title: "Fig 8(b): inconsistency ratio vs retransmission timer",
		Description: "I as Γ sweeps 0.1..10 s: HS, relying solely on retransmission, is the " +
			"most sensitive.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 10, points(o, 7, 13))
			return sweepTable("Fig 8(b): I vs Γ", "retransmit_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { p.Retransmit = x; return p },
				inconsistency)
		},
	})
}
