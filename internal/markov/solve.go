package markov

import (
	"errors"
	"fmt"
	"math"

	"softstate/internal/linalg"
)

// ErrNotSolvable is returned when the chain's linear system is singular,
// typically because the chain is reducible (unreachable or dead-end states)
// in a way that makes the requested analysis ill-posed.
var ErrNotSolvable = errors.New("markov: chain analysis is ill-posed (reducible or empty chain)")

// balanceTolerance bounds the acceptable global-balance residual
// max|πQ| relative to the largest rate in the chain.
const balanceTolerance = 1e-8

// StationaryDistribution solves the global balance equations πQ = 0 with
// Σπ = 1 for a recurrent chain and returns π indexed by StateID.
//
// The linear system replaces one balance equation with the normalization
// constraint (the balance equations are linearly dependent: rows of Q sum
// to zero). After solving, tiny negative entries from roundoff are clamped
// and the vector is renormalized; a residual check guards against silently
// returning nonsense for reducible chains.
func (c *Chain) StationaryDistribution() ([]float64, error) {
	n := c.Len()
	if n == 0 {
		return nil, ErrNotSolvable
	}
	if n == 1 {
		return []float64{1}, nil
	}
	q := c.Generator()
	// The balance equations Qᵀπ = 0 are rank-deficient by exactly one for
	// an irreducible chain (rows of Q sum to zero), and which equation is
	// redundant is not known in general once the chain also contains
	// zero-mass transient states (e.g. the drain state Redirect leaves
	// behind). Rather than guessing an equation to replace, append the
	// normalization Σπ = 1 as an extra row and solve the (n+1)×n system by
	// normal equations: AᵀA π = Aᵀb. The chains here are tiny and well
	// scaled, so the squared condition number is harmless.
	at := q.Transpose()
	ata := linalg.NewMatrix(n, n)
	atb := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += at.At(k, i) * at.At(k, j)
			}
			// Normalization row contributes 1·1 to every entry and 1 to b.
			ata.Set(i, j, s+1)
		}
		atb[i] = 1
	}
	pi, err := linalg.SolveSystem(ata, atb)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSolvable, err)
	}
	// Clamp roundoff negatives and renormalize.
	var sum float64
	for i, v := range pi {
		if v < 0 {
			if v < -1e-9 {
				return nil, fmt.Errorf("%w: stationary probability %v for state %s", ErrNotSolvable, v, c.names[i])
			}
			pi[i] = 0
			v = 0
		}
		sum += v
	}
	if sum <= 0 {
		return nil, ErrNotSolvable
	}
	for i := range pi {
		pi[i] /= sum
	}
	if res := c.BalanceResidual(pi); res > balanceTolerance*(1+c.maxRate()) {
		return nil, fmt.Errorf("%w: balance residual %v", ErrNotSolvable, res)
	}
	return pi, nil
}

// BalanceResidual returns max |(πQ)_j|, a measure of how well π satisfies
// global balance. Exact stationary distributions give ≈0.
func (c *Chain) BalanceResidual(pi []float64) float64 {
	q := c.Generator()
	// πQ = (Qᵀ π)ᵀ
	v := q.Transpose().MulVec(pi)
	var max float64
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

func (c *Chain) maxRate() float64 {
	var max float64
	for _, row := range c.rates {
		for _, e := range row {
			if e.rate > max {
				max = e.rate
			}
		}
	}
	return max
}

// AbsorptionResult reports the absorption analysis of a transient chain.
type AbsorptionResult struct {
	// Occupancy[s] is the expected total time spent in transient state s
	// before absorption, starting from the requested start state. Entries
	// for absorbing states are zero.
	Occupancy []float64
	// MeanTime is the expected time to absorption (the sum of Occupancy).
	MeanTime float64
}

// Absorption computes expected sojourn times before absorption starting
// from `start`. Every state listed in `absorbing` is treated as absorbing
// regardless of any outgoing edges it may have (they are ignored).
//
// Mathematically: with Q_TT the generator restricted to transient states,
// the occupancy row vector τ satisfies τ·Q_TT = −e_start, i.e.
// Q_TTᵀ·τ = −e_start, and MeanTime = Σ τ.
func (c *Chain) Absorption(start StateID, absorbing ...StateID) (*AbsorptionResult, error) {
	n := c.Len()
	if n == 0 {
		return nil, ErrNotSolvable
	}
	c.checkID(start)
	isAbs := make([]bool, n)
	for _, a := range absorbing {
		c.checkID(a)
		isAbs[a] = true
	}
	if isAbs[start] {
		return &AbsorptionResult{Occupancy: make([]float64, n)}, nil
	}
	// Index map transient state → row in the reduced system.
	tIndex := make([]int, n)
	var transient []StateID
	for s := 0; s < n; s++ {
		if isAbs[s] {
			tIndex[s] = -1
			continue
		}
		tIndex[s] = len(transient)
		transient = append(transient, StateID(s))
	}
	m := len(transient)
	if m == 0 {
		return nil, ErrNotSolvable
	}
	// Build A = Q_TTᵀ and b = −e_start.
	a := linalg.NewMatrix(m, m)
	for _, s := range transient {
		row := c.rates[s]
		var exit float64
		for _, e := range row {
			exit += e.rate
			if !isAbs[e.to] {
				// Qᵀ entry: column s, row to.
				a.Add(tIndex[e.to], tIndex[s], e.rate)
			}
		}
		a.Add(tIndex[s], tIndex[s], -exit)
	}
	b := make([]float64, m)
	b[tIndex[start]] = -1
	tau, err := linalg.SolveSystem(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSolvable, err)
	}
	occ := make([]float64, n)
	var total float64
	for i, s := range transient {
		v := tau[i]
		if v < 0 {
			if v < -1e-9 {
				return nil, fmt.Errorf("%w: negative occupancy %v in state %s", ErrNotSolvable, v, c.names[s])
			}
			v = 0
		}
		occ[s] = v
		total += v
	}
	return &AbsorptionResult{Occupancy: occ, MeanTime: total}, nil
}
