// Benchmarks regenerating every table and figure of the paper's
// evaluation (one testing.B per artifact, wrapping internal/exp), plus
// engine microbenchmarks for the substrates the experiments run on.
// Quick mode keeps `go test -bench=.` tractable; run cmd/sigfig without
// -quick for publication-resolution sweeps.
package softstate_test

import (
	"testing"

	"softstate"
	"softstate/internal/exp"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := e.Run(exp.Options{Quick: true, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Table I ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// --- single-hop analytic figures ---

func BenchmarkFig4aInconsistencyVsLifetime(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFig4bMessageRateVsLifetime(b *testing.B)   { benchExperiment(b, "fig4b") }
func BenchmarkFig5aInconsistencyVsLoss(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkFig5bInconsistencyVsDelay(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFig6aInconsistencyVsRefresh(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6bMessageRateVsRefresh(b *testing.B)    { benchExperiment(b, "fig6b") }
func BenchmarkFig7IntegratedCost(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8aInconsistencyVsTimeout(b *testing.B)  { benchExperiment(b, "fig8a") }
func BenchmarkFig8bInconsistencyVsRetransmit(b *testing.B) {
	benchExperiment(b, "fig8b")
}

// --- tradeoff figures ---

func BenchmarkFig9TradeoffViaRefresh(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10aTradeoffViaUpdates(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10bTradeoffViaDelay(b *testing.B)   { benchExperiment(b, "fig10b") }

// --- analytic-vs-simulation validation figures ---

func BenchmarkFig11aValidationInconsistency(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11bValidationMessageRate(b *testing.B)   { benchExperiment(b, "fig11b") }
func BenchmarkFig12aValidationInconsistency(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12bValidationMessageRate(b *testing.B)   { benchExperiment(b, "fig12b") }

// --- multi-hop figures ---

func BenchmarkFig17PerHopInconsistency(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18aInconsistencyVsHops(b *testing.B) { benchExperiment(b, "fig18a") }
func BenchmarkFig18bMessageRateVsHops(b *testing.B)   { benchExperiment(b, "fig18b") }
func BenchmarkFig19aInconsistencyVsRefresh(b *testing.B) {
	benchExperiment(b, "fig19a")
}
func BenchmarkFig19bMessageRateVsRefresh(b *testing.B) { benchExperiment(b, "fig19b") }

// --- ablations (design-choice benches from DESIGN.md §7) ---

func BenchmarkAblationTimerDistribution(b *testing.B) { benchExperiment(b, "ablation-timerdist") }
func BenchmarkAblationFIFO(b *testing.B)              { benchExperiment(b, "ablation-fifo") }
func BenchmarkAblationNotification(b *testing.B)      { benchExperiment(b, "ablation-notification") }
func BenchmarkAblationMultihopSim(b *testing.B)       { benchExperiment(b, "ablation-multihop-sim") }
func BenchmarkAblationCostWeight(b *testing.B)        { benchExperiment(b, "ablation-cost-weight") }

// --- extensions (related-work mechanisms and transient analysis) ---

func BenchmarkExtConvergenceCDF(b *testing.B)   { benchExperiment(b, "ext-convergence") }
func BenchmarkExtRepairMechanisms(b *testing.B) { benchExperiment(b, "ext-repair") }
func BenchmarkExtSensitivity(b *testing.B)      { benchExperiment(b, "ext-sensitivity") }

// --- substrate microbenchmarks ---

// BenchmarkAnalyzeSingleProtocol measures one CTMC build+solve, the unit
// of work behind every analytic sweep point.
func BenchmarkAnalyzeSingleProtocol(b *testing.B) {
	p := softstate.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := softstate.Analyze(softstate.SSRTR, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeMultihop20 measures the 20-hop chain solve (≈42 states).
func BenchmarkAnalyzeMultihop20(b *testing.B) {
	p := softstate.DefaultMultihopParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := softstate.AnalyzeMultihop(softstate.SSRT, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSession measures event-simulator throughput in sessions
// per second at the Kazaa operating point (shortened sessions).
func BenchmarkSimulateSession(b *testing.B) {
	p := softstate.DefaultParams().WithSessionLength(300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := softstate.Simulate(softstate.SimConfig{
			Protocol: softstate.SSER,
			Params:   p,
			Sessions: 10,
			Seed:     uint64(i) + 1,
			Timers:   softstate.Deterministic,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
