package markov

import (
	"math"
	"testing"
)

func TestStateRegistration(t *testing.T) {
	c := NewChain()
	a := c.State("a")
	b := c.State("b")
	if a == b {
		t.Fatal("distinct names got same ID")
	}
	if got := c.State("a"); got != a {
		t.Fatal("re-registering returned a different ID")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.names[a] != "a" || c.names[b] != "b" {
		t.Fatal("Name mismatch")
	}
	if id, ok := c.index["b"]; !ok || id != b {
		t.Fatal("Lookup failed for existing state")
	}
	if _, ok := c.index["zzz"]; ok {
		t.Fatal("Lookup found a nonexistent state")
	}
}

func TestAddTransitionAccumulates(t *testing.T) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	c.AddTransition(a, b, 1.5)
	c.AddTransition(a, b, 2.5)
	if got := c.Rate(a, b); got != 4 {
		t.Fatalf("Rate = %v, want 4", got)
	}
	if got := c.ExitRate(a); got != 4 {
		t.Fatalf("ExitRate = %v, want 4", got)
	}
}

func TestAddTransitionZeroIgnored(t *testing.T) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	c.AddTransition(a, b, 0)
	if got := c.Rate(a, b); got != 0 {
		t.Fatalf("Rate = %v, want 0", got)
	}
	if len(c.rates[a]) != 0 {
		t.Fatal("zero-rate edge was recorded")
	}
}

func TestAddTransitionRejectsBadRates(t *testing.T) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", bad)
				}
			}()
			c.AddTransition(a, b, bad)
		}()
	}
}

func TestAddTransitionRejectsSelfLoop(t *testing.T) {
	c := NewChain()
	a := c.State("a")
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	c.AddTransition(a, a, 1)
}

func TestGeneratorRowsSumToZero(t *testing.T) {
	c := NewChain()
	a, b, d := c.State("a"), c.State("b"), c.State("d")
	c.AddTransition(a, b, 2)
	c.AddTransition(a, d, 3)
	c.AddTransition(b, a, 1)
	q := c.Generator()
	for i := 0; i < c.Len(); i++ {
		var sum float64
		for j := 0; j < c.Len(); j++ {
			sum += q.At(i, j)
		}
		if math.Abs(sum) > 1e-15 {
			t.Fatalf("row %d sums to %v, want 0", i, sum)
		}
	}
	if q.At(0, 0) != -5 {
		t.Fatalf("diagonal = %v, want -5", q.At(0, 0))
	}
}

func TestCloneIndependent(t *testing.T) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	c.AddTransition(a, b, 1)
	cl := c.Clone()
	cl.AddTransition(a, b, 1)
	if c.Rate(a, b) != 1 {
		t.Fatal("Clone shares rate storage")
	}
}

func TestRedirect(t *testing.T) {
	// a → absorbing, b → absorbing; redirect absorbing into a.
	c := NewChain()
	a, b, abs := c.State("a"), c.State("b"), c.State("abs")
	c.AddTransition(a, b, 1)
	c.AddTransition(b, abs, 2)
	c.AddTransition(a, abs, 3)
	r := c.Redirect(abs, a)
	if got := r.Rate(b, a); got != 2 {
		t.Fatalf("redirected rate b→a = %v, want 2", got)
	}
	if got := r.Rate(b, abs); got != 0 {
		t.Fatalf("rate b→abs = %v, want 0 after redirect", got)
	}
	// a → abs would become a self-loop; it must be dropped.
	if got := r.Rate(a, abs); got != 0 {
		t.Fatalf("rate a→abs = %v, want 0 after redirect", got)
	}
	// Original chain untouched.
	if c.Rate(b, abs) != 2 {
		t.Fatal("Redirect modified the original chain")
	}
}

func TestRedirectIdentity(t *testing.T) {
	c := NewChain()
	a, b := c.State("a"), c.State("b")
	c.AddTransition(a, b, 1)
	r := c.Redirect(a, a)
	if r.Rate(a, b) != 1 {
		t.Fatal("identity redirect lost an edge")
	}
}
