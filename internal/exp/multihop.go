package exp

import (
	"fmt"

	"softstate/internal/multihop"
	"softstate/internal/report"
	"softstate/internal/singlehop"
)

// multihopColumns are the protocols of the §III-B study.
func multihopColumns() []string {
	cols := make([]string, 0, 3)
	for _, p := range multihop.Protocols() {
		cols = append(cols, p.String())
	}
	return cols
}

// multihopSweep evaluates metric for SS, SS+RT, HS across a sweep.
func multihopSweep(title, xName string, xs []float64,
	param func(multihop.Params, float64) multihop.Params,
	metric func(multihop.Metrics) float64) (*report.Table, error) {
	t := report.New(title, append([]string{xName}, multihopColumns()...)...)
	for _, x := range xs {
		p := param(multihop.DefaultParams(), x)
		row := []float64{x}
		for _, proto := range multihop.Protocols() {
			m, err := multihop.Analyze(proto, p)
			if err != nil {
				return nil, fmt.Errorf("exp: %s at %s=%v: %w", title, xName, x, err)
			}
			row = append(row, metric(m))
		}
		t.AddNumericRow(row...)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "fig17",
		Title: "Fig 17: per-hop inconsistency on a 20-hop path",
		Description: "Fraction of time the i-th hop is inconsistent, i = 1..20: grows " +
			"≈linearly with distance from the sender; SS worst, SS+RT ≈ HS.",
		Run: func(o Options) (*report.Table, error) {
			p := multihop.DefaultParams()
			perHop := make(map[singlehop.Protocol][]float64, 3)
			for _, proto := range multihop.Protocols() {
				m, err := multihop.Analyze(proto, p)
				if err != nil {
					return nil, err
				}
				perHop[proto] = m.PerHop
			}
			t := report.New("Fig 17: per-hop inconsistency (N=20)",
				append([]string{"hop"}, multihopColumns()...)...)
			for k := 0; k < p.Hops; k++ {
				row := []float64{float64(k + 1)}
				for _, proto := range multihop.Protocols() {
					row = append(row, perHop[proto][k])
				}
				t.AddNumericRow(row...)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "fig18a",
		Title: "Fig 18(a): inconsistency ratio vs total hops",
		Description: "End-to-end I as the path length sweeps 1..20: monotone growth, SS the " +
			"most sensitive to hop count.",
		Run: func(o Options) (*report.Table, error) {
			var xs []float64
			step := 1
			if o.Quick {
				step = 4
			}
			for n := 1; n <= 20; n += step {
				xs = append(xs, float64(n))
			}
			return multihopSweep("Fig 18(a): I vs N", "hops", xs,
				func(p multihop.Params, x float64) multihop.Params {
					return p.WithHops(int(x))
				},
				func(m multihop.Metrics) float64 { return m.Inconsistency })
		},
	})

	register(Experiment{
		ID:    "fig18b",
		Title: "Fig 18(b): signaling message rate vs total hops",
		Description: "Path-wide signaling rate vs N: refresh relaying makes the soft " +
			"protocols grow fastest; SS+RT adds little over SS; HS stays far below.",
		Run: func(o Options) (*report.Table, error) {
			var xs []float64
			step := 1
			if o.Quick {
				step = 4
			}
			for n := 1; n <= 20; n += step {
				xs = append(xs, float64(n))
			}
			return multihopSweep("Fig 18(b): message rate vs N", "hops", xs,
				func(p multihop.Params, x float64) multihop.Params {
					return p.WithHops(int(x))
				},
				func(m multihop.Metrics) float64 { return m.MsgRate })
		},
	})

	register(Experiment{
		ID:    "fig19a",
		Title: "Fig 19(a): multi-hop inconsistency vs refresh timer",
		Description: "I as R sweeps 0.1..1000 s (T = 3R) on the 20-hop path: SS has a sharp " +
			"interior optimum (≈0.5–1 s); SS+RT's optimum sits near 10 s; HS is flat.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 1000, points(o, 9, 17))
			return multihopSweep("Fig 19(a): I vs R", "refresh_s", xs,
				func(p multihop.Params, x float64) multihop.Params {
					return p.WithRefresh(x)
				},
				func(m multihop.Metrics) float64 { return m.Inconsistency })
		},
	})

	register(Experiment{
		ID:    "fig19b",
		Title: "Fig 19(b): multi-hop message rate vs refresh timer",
		Description: "Path-wide signaling rate over the same sweep: decreasing in R for the " +
			"soft protocols, flat for HS.",
		Run: func(o Options) (*report.Table, error) {
			xs := logspace(0.1, 1000, points(o, 9, 17))
			return multihopSweep("Fig 19(b): message rate vs R", "refresh_s", xs,
				func(p multihop.Params, x float64) multihop.Params {
					return p.WithRefresh(x)
				},
				func(m multihop.Metrics) float64 { return m.MsgRate })
		},
	})
}
