// Package softstate is a Go implementation of the signaling-protocol
// analysis from Ji, Ge, Kurose, and Towsley, "A Comparison of Hard-state
// and Soft-state Signaling Protocols" (SIGCOMM 2003).
//
// The package models five generic signaling protocols spanning the
// hard-state/soft-state spectrum — pure soft state (SS), soft state with
// explicit removal (SS+ER), with reliable triggers (SS+RT), with reliable
// triggers and removal (SS+RTR), and pure hard state (HS) — and evaluates
// them three ways:
//
//   - analytically, via the paper's continuous-time Markov chains for
//     single-hop (Analyze) and multi-hop (AnalyzeMultihop) systems;
//   - by event-level simulation of the actual protocol state machines
//     over a lossy, delaying, FIFO channel (Simulate, SimulateMultihop);
//   - and as a runnable real-time signaling runtime over net.PacketConn
//     (internal/signal), for use as an actual protocol library, backed by
//     a sharded state table with hierarchical timing wheels
//     (internal/statetable) that scales to millions of concurrent keys.
//
// The metrics follow the paper: the inconsistency ratio I (fraction of
// time sender and receiver state disagree), the normalized signaling
// message rate Λ = μr·E[messages per session], and the integrated cost
// C = α·I + Λ.
//
// # Quickstart
//
//	p := softstate.DefaultParams()
//	for _, proto := range softstate.Protocols() {
//		m, err := softstate.Analyze(proto, p)
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Printf("%-7v I=%.4f Λ=%.3f msg/s\n", proto, m.Inconsistency, m.NormalizedRate)
//	}
//
// Every table and figure of the paper's evaluation can be regenerated
// with cmd/sigfig; see DESIGN.md for the package map, the statetable
// architecture, and how performance is measured (benchmark/).
package softstate

import (
	"softstate/internal/multihop"
	"softstate/internal/rand"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
)

// Protocol identifies one of the five generic signaling protocols.
type Protocol = singlehop.Protocol

// The five protocols, ordered from pure soft state to pure hard state.
const (
	SS    = singlehop.SS
	SSER  = singlehop.SSER
	SSRT  = singlehop.SSRT
	SSRTR = singlehop.SSRTR
	HS    = singlehop.HS
)

// Params are the single-hop system parameters (paper §III-A): update and
// removal rates, channel delay and loss, and the refresh/timeout/
// retransmission timers.
type Params = singlehop.Params

// MultihopParams are the path parameters (paper §III-B).
type MultihopParams = multihop.Params

// Metrics are the single-hop analytic outputs: inconsistency ratio,
// lifetime, message rates.
type Metrics = singlehop.Metrics

// MultihopMetrics are the multi-hop analytic outputs, including per-hop
// inconsistency.
type MultihopMetrics = multihop.Metrics

// SimConfig configures the event-level single-hop simulator.
type SimConfig = sim.Config

// SimResult is the single-hop simulation output with confidence intervals.
type SimResult = sim.Result

// MultihopSimConfig configures the event-level path simulator.
type MultihopSimConfig = sim.MultiConfig

// MultihopSimResult is the path simulation output.
type MultihopSimResult = sim.MultiResult

// TimerKind selects a timer distribution for simulations.
type TimerKind = rand.TimerKind

// Timer distribution families.
const (
	Exponential   = rand.Exponential
	Deterministic = rand.Deterministic
	UniformJitter = rand.UniformJitter
)

// Comparison pairs a protocol with its analytic metrics.
type Comparison = singlehop.Comparison

// Protocols returns all five protocols in the paper's order.
func Protocols() []Protocol { return singlehop.Protocols() }

// MultihopProtocols returns the protocols covered by the multi-hop study.
func MultihopProtocols() []Protocol { return multihop.Protocols() }

// DefaultParams returns the paper's Kazaa-scenario single-hop defaults.
func DefaultParams() Params { return singlehop.DefaultParams() }

// DefaultMultihopParams returns the paper's path-reservation defaults.
func DefaultMultihopParams() MultihopParams { return multihop.DefaultParams() }

// Analyze solves the single-hop CTMC for proto at p.
func Analyze(proto Protocol, p Params) (Metrics, error) { return singlehop.Analyze(proto, p) }

// AnalyzeMultihop solves the multi-hop CTMC for proto at p.
func AnalyzeMultihop(proto Protocol, p MultihopParams) (MultihopMetrics, error) {
	return multihop.Analyze(proto, p)
}

// Simulate runs the event-level single-hop simulator.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.RunSingleHop(cfg) }

// SimulateMultihop runs the event-level path simulator.
func SimulateMultihop(cfg MultihopSimConfig) (MultihopSimResult, error) {
	return sim.RunMultiHop(cfg)
}

// IntegratedCost is C = α·I + Λ (paper eq. 8).
func IntegratedCost(alpha float64, m Metrics) float64 { return singlehop.IntegratedCost(alpha, m) }

// Compare solves every protocol at one parameter point.
func Compare(p Params) ([]Comparison, error) { return singlehop.Compare(p) }

// BestProtocol returns the protocol minimizing C = α·I + Λ at p.
func BestProtocol(alpha float64, p Params) (Protocol, float64, error) {
	return singlehop.BestProtocol(alpha, p)
}
