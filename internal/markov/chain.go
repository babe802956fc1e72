// Package markov implements the continuous-time Markov chain (CTMC)
// machinery behind the paper's analytic models: chain construction from
// named states and rates, stationary analysis of recurrent chains, and
// absorption analysis (expected sojourn times and mean time to absorption)
// of transient chains.
//
// Two solver entry points cover everything the signaling models need:
//
//   - StationaryDistribution solves πQ = 0, Σπ = 1 for a recurrent chain.
//     The paper's inconsistency ratio is 1 − π(consistent) on the chain
//     obtained by merging the absorbing state back into the start state.
//
//   - Absorption computes, for a chain with absorbing states, the expected
//     total time spent in every transient state before absorption and the
//     mean time to absorption. The paper's session lifetime L is the mean
//     time to absorption from the initial state.
package markov

import (
	"fmt"
	"math"

	"softstate/internal/linalg"
)

// StateID identifies a state within a Chain. IDs are dense and start at 0
// in order of first registration.
type StateID int

// Chain is a finite CTMC under construction. Create one with NewChain,
// register states with State, and add rate edges with AddTransition.
// Parallel edges accumulate. A Chain is not safe for concurrent mutation.
type Chain struct {
	names []string
	index map[string]StateID
	// rates[from] holds the state's outgoing edges, one per destination,
	// in the order the model added them. The order must be fixed: every
	// analysis sums over a row (the exit rate on the generator's
	// diagonal) and float addition is not associative, so an unordered
	// row — a map — changes the last bits of a solution from run to run.
	rates [][]edge
}

// edge is one outgoing rate of a state.
type edge struct {
	to   StateID
	rate float64
}

// NewChain returns an empty chain.
func NewChain() *Chain {
	return &Chain{index: make(map[string]StateID)}
}

// State returns the ID for name, registering the state if new.
func (c *Chain) State(name string) StateID {
	if id, ok := c.index[name]; ok {
		return id
	}
	id := StateID(len(c.names))
	c.names = append(c.names, name)
	c.index[name] = id
	c.rates = append(c.rates, nil)
	return id
}

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.names) }

// AddTransition adds a rate edge from → to. A zero rate is ignored so model
// builders can pass conditional expressions without branching. Negative,
// NaN, or infinite rates and self-loops panic: they are programming errors
// in the model definition, never data-dependent conditions.
func (c *Chain) AddTransition(from, to StateID, rate float64) {
	if rate == 0 {
		return
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		panic(fmt.Sprintf("markov: invalid rate %v on %s→%s", rate, c.names[from], c.names[to]))
	}
	if from == to {
		panic(fmt.Sprintf("markov: self-loop on state %s", c.names[from]))
	}
	c.checkID(from)
	c.checkID(to)
	c.add(from, to, rate)
}

// add accumulates rate onto the from → to edge, appending it if new.
func (c *Chain) add(from, to StateID, rate float64) {
	row := c.rates[from]
	for i := range row {
		if row[i].to == to {
			row[i].rate += rate
			return
		}
	}
	c.rates[from] = append(row, edge{to, rate})
}

func (c *Chain) checkID(id StateID) {
	if id < 0 || int(id) >= len(c.names) {
		panic(fmt.Sprintf("markov: state id %d out of range (%d states)", id, len(c.names)))
	}
}

// Rate returns the accumulated rate from → to (zero when absent).
func (c *Chain) Rate(from, to StateID) float64 {
	c.checkID(from)
	c.checkID(to)
	for _, e := range c.rates[from] {
		if e.to == to {
			return e.rate
		}
	}
	return 0
}

// ExitRate returns the total outgoing rate of a state.
func (c *Chain) ExitRate(from StateID) float64 {
	c.checkID(from)
	var sum float64
	for _, e := range c.rates[from] {
		sum += e.rate
	}
	return sum
}

// Generator returns the infinitesimal generator Q: off-diagonal entries are
// transition rates, diagonals make each row sum to zero.
func (c *Chain) Generator() *linalg.Matrix {
	n := c.Len()
	q := linalg.NewMatrix(n, n)
	for from, row := range c.rates {
		var exit float64
		for _, e := range row {
			q.Set(from, int(e.to), e.rate)
			exit += e.rate
		}
		q.Set(from, from, -exit)
	}
	return q
}

// Clone returns a deep copy of the chain.
func (c *Chain) Clone() *Chain {
	n := NewChain()
	for _, name := range c.names {
		n.State(name)
	}
	for from, row := range c.rates {
		n.rates[from] = append([]edge(nil), row...)
	}
	return n
}

// Redirect returns a copy of the chain in which every transition that
// enters state `from` enters state `into` instead, and `from` keeps its
// (now unreachable) outgoing edges. The paper uses this to convert the
// transient single-hop chain into a recurrent one: merging the absorbing
// state (-,-) into the start state (1,-)₁ turns each session lifecycle
// into one regeneration cycle of a recurrent process.
func (c *Chain) Redirect(from, into StateID) *Chain {
	c.checkID(from)
	c.checkID(into)
	if from == into {
		return c.Clone()
	}
	n := c.Clone()
	for src, row := range n.rates {
		for i, e := range row {
			if e.to != from {
				continue
			}
			n.rates[src] = append(row[:i], row[i+1:]...)
			// A transition into → from would become a self-loop after the
			// merge; in a regeneration structure it means "restart
			// immediately", which contributes no sojourn time, so drop it.
			if StateID(src) != into {
				n.add(StateID(src), into, e.rate)
			}
			break
		}
	}
	if len(n.rates[from]) == 0 {
		// The merged state is now unreachable; give it a drain edge so the
		// stationary system stays nonsingular and assigns it zero mass.
		n.add(from, into, 1)
	}
	return n
}

// Freeze returns a copy of the chain in which each listed state has its
// outgoing edges removed, making it absorbing. Used for first-passage
// analysis: freezing the target state turns "probability of being in s at
// time t" into "probability of having reached s by time t".
func (c *Chain) Freeze(states ...StateID) *Chain {
	n := c.Clone()
	for _, s := range states {
		n.checkID(s)
		n.rates[s] = nil
	}
	return n
}
