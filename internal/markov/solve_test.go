package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoState builds the classic birth-death chain a ⇄ b with rates λ, μ.
func twoState(lambda, mu float64) (*Chain, StateID, StateID) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	c.AddTransition(a, b, lambda)
	c.AddTransition(b, a, mu)
	return c, a, b
}

func TestStationaryTwoState(t *testing.T) {
	c, a, b := twoState(2, 3)
	pi, err := c.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	// π_a = μ/(λ+μ) = 0.6, π_b = 0.4.
	if math.Abs(pi[a]-0.6) > 1e-12 || math.Abs(pi[b]-0.4) > 1e-12 {
		t.Fatalf("pi = %v, want [0.6 0.4]", pi)
	}
}

func TestStationarySingleState(t *testing.T) {
	c := NewChain()
	c.State("only")
	pi, err := c.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 1 {
		t.Fatalf("pi = %v, want [1]", pi)
	}
}

func TestStationaryEmptyChain(t *testing.T) {
	if _, err := NewChain().StationaryDistribution(); err == nil {
		t.Fatal("expected error for empty chain")
	}
}

func TestStationaryCycle(t *testing.T) {
	// Three-state unidirectional cycle with equal rates: uniform stationary.
	c := NewChain()
	s := []StateID{c.State("0"), c.State("1"), c.State("2")}
	for i := range s {
		c.AddTransition(s[i], s[(i+1)%3], 5)
	}
	pi, err := c.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Fatalf("pi[%d] = %v, want 1/3", i, p)
		}
	}
}

func TestStationaryCycleUnequalRates(t *testing.T) {
	// Cycle with different rates: π_i ∝ 1/rate_i (sojourn proportional to
	// inverse exit rate; flow around the cycle is constant).
	c := NewChain()
	s := []StateID{c.State("0"), c.State("1"), c.State("2")}
	rates := []float64{1, 2, 4}
	for i := range s {
		c.AddTransition(s[i], s[(i+1)%3], rates[i])
	}
	pi, err := c.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	total := 1.0 + 0.5 + 0.25
	want := []float64{1 / total, 0.5 / total, 0.25 / total}
	for i := range want {
		if math.Abs(pi[i]-want[i]) > 1e-12 {
			t.Fatalf("pi = %v, want %v", pi, want)
		}
	}
}

func TestStationaryDisconnectedFails(t *testing.T) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	d, e := c.State("d"), c.State("e")
	c.AddTransition(a, b, 1)
	c.AddTransition(b, a, 1)
	c.AddTransition(d, e, 1)
	c.AddTransition(e, d, 1)
	// Two disconnected recurrent classes: stationary distribution is not
	// unique, the solver must refuse rather than pick silently.
	if _, err := c.StationaryDistribution(); err == nil {
		t.Fatal("expected failure for reducible chain")
	}
}

func TestStationaryPropertyRandomChains(t *testing.T) {
	// Property: for random strongly connected chains (a cycle plus random
	// extra edges), π has unit mass, is nonnegative, and satisfies balance.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		c := NewChain()
		ids := make([]StateID, n)
		for i := range ids {
			ids[i] = c.State(string(rune('A' + i)))
		}
		for i := range ids {
			c.AddTransition(ids[i], ids[(i+1)%n], 0.1+rng.Float64()*10)
		}
		extra := rng.Intn(3 * n)
		for k := 0; k < extra; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			c.AddTransition(ids[i], ids[j], 0.1+rng.Float64()*10)
		}
		pi, err := c.StationaryDistribution()
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		return c.BalanceResidual(pi) < 1e-7*(1+10)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorptionSingleTransient(t *testing.T) {
	// a → abs at rate λ: mean time to absorption is 1/λ.
	c := NewChain()
	a, abs := c.State("a"), c.State("abs")
	c.AddTransition(a, abs, 4)
	res, err := c.Absorption(a, abs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanTime-0.25) > 1e-12 {
		t.Fatalf("MeanTime = %v, want 0.25", res.MeanTime)
	}
	if math.Abs(res.Occupancy[a]-0.25) > 1e-12 {
		t.Fatalf("Occupancy = %v", res.Occupancy)
	}
	if res.Occupancy[abs] != 0 {
		t.Fatal("absorbing state has nonzero occupancy")
	}
}

func TestAbsorptionChainOfStates(t *testing.T) {
	// a → b → abs, each at rate 1: mean time 2, occupancy 1 in each.
	c := NewChain()
	a, b, abs := c.State("a"), c.State("b"), c.State("abs")
	c.AddTransition(a, b, 1)
	c.AddTransition(b, abs, 1)
	res, err := c.Absorption(a, abs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanTime-2) > 1e-12 {
		t.Fatalf("MeanTime = %v, want 2", res.MeanTime)
	}
	for _, s := range []StateID{a, b} {
		if math.Abs(res.Occupancy[s]-1) > 1e-12 {
			t.Fatalf("Occupancy[%s] = %v, want 1", c.names[s], res.Occupancy[s])
		}
	}
}

func TestAbsorptionWithLoop(t *testing.T) {
	// a → b (rate 1), b → a (rate 1), b → abs (rate 1).
	// Expected visits: from a the process bounces; standard result:
	// occupancy(a) = 2, occupancy(b) = 2, mean time = 4... verified by
	// first-step analysis: E_a = 1 + E_b; E_b = 1/2 + (1/2)E_a ⇒
	// sojourn times: state a mean 1 per visit, b mean 1/2 per visit.
	// E_a = 1 + E_b, E_b = 1/2 + 0.5·E_a ⇒ E_a = 3, E_b = 2.
	c := NewChain()
	a, b, abs := c.State("a"), c.State("b"), c.State("abs")
	c.AddTransition(a, b, 1)
	c.AddTransition(b, a, 1)
	c.AddTransition(b, abs, 1)
	res, err := c.Absorption(a, abs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanTime-3) > 1e-12 {
		t.Fatalf("MeanTime = %v, want 3", res.MeanTime)
	}
}

func TestAbsorptionFromAbsorbingState(t *testing.T) {
	c := NewChain()
	a, abs := c.State("a"), c.State("abs")
	c.AddTransition(a, abs, 1)
	res, err := c.Absorption(abs, abs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTime != 0 {
		t.Fatalf("MeanTime = %v, want 0", res.MeanTime)
	}
}

func TestAbsorptionUnreachableAbsorbing(t *testing.T) {
	// a ⇄ b with no path to abs: the transient system is recurrent and the
	// expected absorption time is infinite; the solver must error out.
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	abs := c.State("abs")
	c.AddTransition(a, b, 1)
	c.AddTransition(b, a, 1)
	if _, err := c.Absorption(a, abs); err == nil {
		t.Fatal("expected error when absorption is impossible")
	}
}

func TestAbsorptionIgnoresAbsorbingOutEdges(t *testing.T) {
	c := NewChain()
	a, abs := c.State("a"), c.State("abs")
	c.AddTransition(a, abs, 2)
	c.AddTransition(abs, a, 100) // must be ignored
	res, err := c.Absorption(a, abs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanTime-0.5) > 1e-12 {
		t.Fatalf("MeanTime = %v, want 0.5", res.MeanTime)
	}
}

func TestAbsorptionPropertyExponentialRace(t *testing.T) {
	// Property: a single state with k competing absorbing exits at rates
	// r_1..r_k has mean absorption time 1/Σr.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(5) + 1
		c := NewChain()
		start := c.State("start")
		var total float64
		var absorbing []StateID
		for i := 0; i < k; i++ {
			r := 0.1 + rng.Float64()*5
			abs := c.State(string(rune('a' + i)))
			c.AddTransition(start, abs, r)
			absorbing = append(absorbing, abs)
			total += r
		}
		res, err := c.Absorption(start, absorbing...)
		if err != nil {
			return false
		}
		return math.Abs(res.MeanTime-1/total) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRedirectStationaryMatchesAbsorptionRatio(t *testing.T) {
	// Regeneration argument used throughout the paper: for a transient
	// chain with absorbing state z, merging z into the start state yields a
	// recurrent chain whose stationary probability of state s equals
	// occupancy(s)/meanTime of the absorption analysis.
	c := NewChain()
	s0, s1, s2, z := c.State("s0"), c.State("s1"), c.State("s2"), c.State("z")
	c.AddTransition(s0, s1, 1.3)
	c.AddTransition(s1, s0, 0.4)
	c.AddTransition(s1, s2, 2.0)
	c.AddTransition(s2, s1, 0.7)
	c.AddTransition(s2, z, 0.9)
	c.AddTransition(s0, z, 0.1)

	abs, err := c.Absorption(s0, z)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Redirect(z, s0)
	pi, err := rec.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []StateID{s0, s1, s2} {
		want := abs.Occupancy[s] / abs.MeanTime
		if math.Abs(pi[s]-want) > 1e-9 {
			t.Fatalf("pi[%s] = %v, want occupancy ratio %v", c.names[s], pi[s], want)
		}
	}
	if pi[z] > 1e-12 {
		t.Fatalf("merged state has stationary mass %v, want ≈0", pi[z])
	}
}
