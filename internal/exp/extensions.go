package exp

import (
	"fmt"
	"math"

	"softstate/internal/rand"
	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
)

func init() {
	register(Experiment{
		ID:    "ext-convergence",
		Title: "Extension: update-propagation CDF (first-passage to consistency)",
		Description: "P(update installed by t) from the transient analysis of the Fig 3 " +
			"chains at a 20% loss point. The paper's §II lists install latency as a " +
			"qualitative factor; uniformization quantifies it: reliable triggers compress " +
			"the tail from refresh-scale (seconds) to retransmission-scale (100s of ms).",
		Run: func(o Options) (*report.Table, error) {
			p := singlehop.DefaultParams()
			p.Loss = 0.2
			times := []float64{0.01, 0.03, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20}
			if o.Quick {
				times = []float64{0.05, 0.2, 1, 5, 20}
			}
			t := report.New("Update-propagation CDF (pl = 0.2)",
				append([]string{"time_s"}, protocolColumns()...)...)
			curves := make(map[singlehop.Protocol][]float64, 5)
			for _, proto := range singlehop.Protocols() {
				m, err := singlehop.Build(proto, p)
				if err != nil {
					return nil, err
				}
				cdf, err := m.UpdateConvergence(times)
				if err != nil {
					return nil, err
				}
				curves[proto] = cdf
			}
			for i, tt := range times {
				row := []float64{tt}
				for _, proto := range singlehop.Protocols() {
					row = append(row, curves[proto][i])
				}
				t.AddNumericRow(row...)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:        "ext-repair",
		Title:     "Extension: loss-repair mechanisms (staged refresh, NACK oracle, ACK timer)",
		Simulated: true,
		Description: "Compares the repair schemes from the paper's related work on the SS base " +
			"across a loss sweep: Pan & Schulzrinne's staged refresh timers [12], an idealized " +
			"version of Raman & McCanne's NACK-based detection [15] (receiver learns of losses " +
			"instantly), and the paper's own SS+RT (ACK + retransmission timer). Long form: " +
			"(loss, variant, I, Λ).",
		Run: func(o Options) (*report.Table, error) {
			t := report.New("Loss-repair comparison (1/μr = 300 s)",
				"loss", "variant", "sim_I", "sim_rate")
			losses := []float64{0.02, 0.1, 0.2}
			if o.Quick {
				losses = []float64{0.02, 0.2}
			}
			variants := []struct {
				name string
				cfg  func(sim.Config) sim.Config
			}{
				{"SS", func(c sim.Config) sim.Config { return c }},
				{"SS+staged", func(c sim.Config) sim.Config { c.StagedRefresh = true; return c }},
				{"SS+NACK", func(c sim.Config) sim.Config { c.NackOracle = true; return c }},
				{"SS+RT", func(c sim.Config) sim.Config { c.Protocol = singlehop.SSRT; return c }},
			}
			for _, loss := range losses {
				p := ablationParams()
				p.Loss = loss
				for _, v := range variants {
					cfg := v.cfg(sim.Config{
						Protocol: singlehop.SS, Params: p,
						Sessions: ablationSessions(o), Seed: o.Seed + 53,
						Timers: rand.Deterministic,
					})
					res, err := sim.RunSingleHop(cfg)
					if err != nil {
						return nil, err
					}
					t.AddRow(fmt.Sprintf("%.3g", loss), v.name,
						fmt.Sprintf("%.5f", res.Inconsistency.Mean),
						fmt.Sprintf("%.4f", res.NormalizedRate.Mean))
				}
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "ext-sensitivity",
		Title: "Extension: parameter elasticities of the inconsistency ratio",
		Description: "Log-log sensitivities ∂lnI/∂lnθ at the Kazaa defaults (central finite " +
			"differences): which knob each protocol actually responds to. Soft state is " +
			"timeout/refresh-dominated; hard state is retransmission- and delay-dominated.",
		Run: func(o Options) (*report.Table, error) {
			knobs := []struct {
				name string
				set  func(singlehop.Params, float64) singlehop.Params
				get  func(singlehop.Params) float64
			}{
				{"loss", func(p singlehop.Params, v float64) singlehop.Params { p.Loss = v; return p },
					func(p singlehop.Params) float64 { return p.Loss }},
				{"delay", func(p singlehop.Params, v float64) singlehop.Params { p.Delay = v; return p },
					func(p singlehop.Params) float64 { return p.Delay }},
				{"refresh", func(p singlehop.Params, v float64) singlehop.Params { p.Refresh = v; return p },
					func(p singlehop.Params) float64 { return p.Refresh }},
				{"timeout", func(p singlehop.Params, v float64) singlehop.Params { p.Timeout = v; return p },
					func(p singlehop.Params) float64 { return p.Timeout }},
				{"retransmit", func(p singlehop.Params, v float64) singlehop.Params { p.Retransmit = v; return p },
					func(p singlehop.Params) float64 { return p.Retransmit }},
				{"update_rate", func(p singlehop.Params, v float64) singlehop.Params { p.UpdateRate = v; return p },
					func(p singlehop.Params) float64 { return p.UpdateRate }},
			}
			t := report.New("Elasticity of I at Kazaa defaults",
				append([]string{"parameter"}, protocolColumns()...)...)
			base := singlehop.DefaultParams()
			const h = 0.02 // ±2% central difference in log space
			for _, k := range knobs {
				cells := []string{k.name}
				for _, proto := range singlehop.Protocols() {
					v0 := k.get(base)
					up, err := singlehop.Analyze(proto, k.set(base, v0*(1+h)))
					if err != nil {
						return nil, err
					}
					down, err := singlehop.Analyze(proto, k.set(base, v0*(1-h)))
					if err != nil {
						return nil, err
					}
					el := (math.Log(up.Inconsistency) - math.Log(down.Inconsistency)) /
						(math.Log(1+h) - math.Log(1-h))
					if math.Abs(el) < 0.0005 {
						// An elasticity that is zero up to rounding noise
						// (±1e-17) prints as +0.000, never -0.000.
						el = 0
					}
					cells = append(cells, fmt.Sprintf("%+.3f", el))
				}
				t.AddRow(cells...)
			}
			return t, nil
		},
	})
}
