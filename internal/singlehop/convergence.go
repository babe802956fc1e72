package singlehop

import (
	"fmt"
	"sort"
)

// UpdateConvergence returns, for each time in times, the probability that
// a state update issued at time 0 has been installed at the receiver —
// the first-passage CDF from C̄₁ (update trigger in flight) to C.
//
// This transient view extends the paper's steady-state analysis: the
// inconsistency ratio tells you the *fraction* of time spent waiting on
// updates; this curve tells you the *distribution* of each wait, which is
// what an application with a deadline actually cares about (§II lists
// "the smaller the refresh timer, the sooner consistent state will be
// installed" as a qualitative factor — here it is quantified).
//
// Times must be nonnegative; the result is nondecreasing in t.
func (m *Model) UpdateConvergence(times []float64) ([]float64, error) {
	for _, t := range times {
		if t < 0 {
			return nil, fmt.Errorf("singlehop: negative time %v", t)
		}
	}
	if !sort.Float64sAreSorted(times) {
		return nil, fmt.Errorf("singlehop: times must be sorted")
	}
	// Make C absorbing so mass that reaches consistency stays there.
	frozen := m.chain.Freeze(m.ids[stC])
	p0 := frozen.UnitDistribution(m.ids[stCbar1])
	out := make([]float64, len(times))
	for i, t := range times {
		p, err := frozen.TransientAt(p0, t)
		if err != nil {
			return nil, fmt.Errorf("singlehop: %v convergence at t=%v: %w", m.Proto, t, err)
		}
		out[i] = p[m.ids[stC]]
	}
	return out, nil
}
