package markov

import (
	"fmt"
	"math"
)

// TransientAt computes the state-probability vector at time t, starting
// from the distribution p0, by uniformization (Jensen's method):
//
//	p(t) = Σ_k Poisson(qt; k) · p0·P̂ᵏ,  P̂ = I + Q/q,  q ≥ max exit rate.
//
// Uniformization is numerically robust (all terms nonnegative) and lets
// the experiment harness answer questions the paper's steady-state
// analysis cannot, such as "how quickly is a fresh update installed?"
// (the time-to-consistency study in internal/exp).
//
// The truncation error is bounded by the Poisson tail mass, kept below
// 1e-12.
func (c *Chain) TransientAt(p0 []float64, t float64) ([]float64, error) {
	n := c.Len()
	if len(p0) != n {
		return nil, fmt.Errorf("markov: initial distribution has %d entries, chain has %d states", len(p0), n)
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("markov: invalid time %v", t)
	}
	var sum float64
	for i, v := range p0 {
		if v < 0 {
			return nil, fmt.Errorf("markov: negative initial probability %v in state %s", v, c.names[i])
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("markov: initial distribution sums to %v", sum)
	}
	if t == 0 || n == 0 {
		out := make([]float64, n)
		copy(out, p0)
		return out, nil
	}

	// Uniformization rate: a hair above the largest exit rate so P̂ keeps
	// strictly positive diagonals (better conditioning).
	q := 0.0
	for s := 0; s < n; s++ {
		if r := c.ExitRate(StateID(s)); r > q {
			q = r
		}
	}
	if q == 0 {
		out := make([]float64, n)
		copy(out, p0)
		return out, nil
	}
	q *= 1.02

	// step applies v·P̂ = v + (v·Q)/q without materializing P̂.
	step := func(v []float64) []float64 {
		out := make([]float64, n)
		copy(out, v)
		for s := 0; s < n; s++ {
			vs := v[s]
			if vs == 0 {
				continue
			}
			exit := 0.0
			for _, e := range c.rates[s] {
				out[e.to] += vs * e.rate / q
				exit += e.rate
			}
			out[s] -= vs * exit / q
		}
		return out
	}

	// Accumulate Σ_k w_k·(p0·P̂^k) with Poisson weights computed
	// iteratively; stop when the remaining tail mass is negligible.
	const tailEps = 1e-12
	qt := q * t
	result := make([]float64, n)
	term := make([]float64, n)
	copy(term, p0)
	logW := -qt // log of Poisson(qt; 0)
	accumulated := 0.0
	for k := 0; ; k++ {
		if k > 0 {
			term = step(term)
			logW += math.Log(qt) - math.Log(float64(k))
		}
		w := math.Exp(logW)
		if w > 0 {
			for i := range result {
				result[i] += w * term[i]
			}
			accumulated += w
		}
		// Beyond the Poisson mean, the weights decay geometrically; stop
		// once the accumulated mass is within tailEps of 1.
		if float64(k) > qt && 1-accumulated < tailEps {
			break
		}
		if k > int(qt)+200+int(20*math.Sqrt(qt)) {
			break // hard cap; tail bound met in practice far earlier
		}
	}
	// Renormalize away the truncated tail and roundoff.
	var rs float64
	for _, v := range result {
		rs += v
	}
	if rs > 0 {
		for i := range result {
			result[i] /= rs
		}
	}
	return result, nil
}

// UnitDistribution returns the distribution concentrated on state s.
func (c *Chain) UnitDistribution(s StateID) []float64 {
	c.checkID(s)
	p := make([]float64, c.Len())
	p[s] = 1
	return p
}
