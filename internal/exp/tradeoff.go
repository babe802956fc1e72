package exp

import (
	"fmt"

	"softstate/internal/report"
	"softstate/internal/singlehop"
)

// tradeoffTable produces the paper's parametric tradeoff plots (Figs 9 and
// 10): for each sweep value, every protocol contributes an (I, Λ) pair.
// Output is in long form — one row per (sweep value, protocol) — which is
// what a plotting tool wants for parametric curves.
func tradeoffTable(title, xName string, xs []float64,
	param func(singlehop.Params, float64) singlehop.Params) (*report.Table, error) {
	t := report.New(title, xName, "protocol", "inconsistency", "message_overhead")
	for _, x := range xs {
		p := param(singlehop.DefaultParams(), x)
		for _, proto := range singlehop.Protocols() {
			m, err := singlehop.Analyze(proto, p)
			if err != nil {
				return nil, fmt.Errorf("exp: %s at %s=%v: %w", title, xName, x, err)
			}
			t.AddRow(
				fmt.Sprintf("%.6g", x),
				proto.String(),
				fmt.Sprintf("%.6g", m.Inconsistency),
				fmt.Sprintf("%.6g", m.NormalizedRate),
			)
		}
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Fig 9: inconsistency/message-rate tradeoff (varying R)",
		Description: "Parametric (I, Λ) curves traced by sweeping the refresh timer; HS is a " +
			"single point, SS+RTR's consistency is insensitive to refresh rate.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 100, points(o, 9, 17))
			return tradeoffTable("Fig 9: tradeoff via R", "refresh_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithRefresh(x) })
		},
	})

	register(Experiment{
		ID:    "fig10a",
		Title: "Fig 10(a): tradeoff (varying update rate)",
		Description: "Parametric (I, Λ) curves traced by sweeping λu: SS is cheapest when " +
			"coarse consistency suffices (I ≳ 0.01); HS is cheapest for tight consistency " +
			"targets (I ≲ 0.005).",
		Run: func(o Options) (*report.Table, error) {
			// Sweep the mean update interval 1/λu.
			xs := logspace(1, 1e4, points(o, 9, 17))
			return tradeoffTable("Fig 10(a): tradeoff via λu", "update_interval_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { p.UpdateRate = 1 / x; return p })
		},
	})

	register(Experiment{
		ID:    "fig10b",
		Title: "Fig 10(b): tradeoff (varying channel delay)",
		Description: "Parametric (I, Λ) curves traced by sweeping D (Γ = 4D): the tradeoff " +
			"curves are largely insensitive to delay.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.001, 1, points(o, 9, 17))
			return tradeoffTable("Fig 10(b): tradeoff via D", "delay_s", xs,
				func(p singlehop.Params, x float64) singlehop.Params { return p.WithDelay(x) })
		},
	})
}
