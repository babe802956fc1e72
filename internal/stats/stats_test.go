package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Add(x)
	}
	if m.n != 5 {
		t.Fatalf("N = %d, want 5", m.n)
	}
	if math.Abs(m.Mean()-3) > 1e-12 {
		t.Fatalf("Mean = %v, want 3", m.Mean())
	}
	if math.Abs(m.Variance()-2.5) > 1e-12 {
		t.Fatalf("Variance = %v, want 2.5", m.Variance())
	}
	if math.Abs(m.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("StdDev = %v", m.StdDev())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Variance() != 0 || m.CI95() != 0 || m.StdErr() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
}

func TestMeanSingleObservation(t *testing.T) {
	var m Mean
	m.Add(7)
	if m.Mean() != 7 || m.Variance() != 0 || m.CI95() != 0 {
		t.Fatal("single observation should have zero spread")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Mean
	for i := 0; i < 5; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 500; i++ {
		large.Add(float64(i % 2))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		q := tQuantile95(df)
		if q > prev+1e-12 {
			t.Fatalf("t quantile not non-increasing at df=%d: %v > %v", df, q, prev)
		}
		prev = q
	}
	if tQuantile95(1000) != 1.96 {
		t.Fatalf("large-df quantile = %v, want 1.96", tQuantile95(1000))
	}
	if tQuantile95(0) != 0 {
		t.Fatal("df=0 should return 0")
	}
}

func TestMeanPropertyMatchesDirectComputation(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var m Mean
		var sum float64
		for _, x := range clean {
			m.Add(x)
			sum += x
		}
		direct := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - direct) * (x - direct)
		}
		directVar := ss / float64(len(clean)-1)
		scale := 1 + math.Abs(direct)
		return math.Abs(m.Mean()-direct) < 1e-9*scale &&
			math.Abs(m.Variance()-directVar) < 1e-6*(1+directVar)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBasic(t *testing.T) {
	var f Fraction
	f.Observe(0, true)
	f.Observe(2, false) // true for [0,2)
	f.Observe(5, true)  // false for [2,5)
	f.Finish(10)        // true for [5,10)
	if f.total != 10 {
		t.Fatalf("Total = %v, want 10", f.total)
	}
	if f.TrueTime() != 7 {
		t.Fatalf("TrueTime = %v, want 7", f.TrueTime())
	}
	if math.Abs(f.Value()-0.7) > 1e-12 {
		t.Fatalf("Value = %v, want 0.7", f.Value())
	}
}

func TestFractionRepeatedObserve(t *testing.T) {
	var f Fraction
	f.Observe(0, true)
	f.Observe(1, true) // restating the same value must not break accounting
	f.Observe(2, false)
	f.Finish(4)
	if math.Abs(f.Value()-0.5) > 1e-12 {
		t.Fatalf("Value = %v, want 0.5", f.Value())
	}
}

func TestFractionEmpty(t *testing.T) {
	var f Fraction
	if f.Value() != 0 {
		t.Fatal("empty fraction should be 0")
	}
	f.Finish(10) // Finish before any Observe is a no-op
	if f.total != 0 {
		t.Fatal("Finish without Observe accumulated time")
	}
}

func TestFractionZeroDuration(t *testing.T) {
	var f Fraction
	f.Observe(5, true)
	f.Finish(5)
	if f.Value() != 0 {
		t.Fatalf("zero-duration window Value = %v, want 0", f.Value())
	}
}

func TestFractionTimeRegressionPanics(t *testing.T) {
	var f Fraction
	f.Observe(5, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	f.Observe(4, false)
}

func TestFractionPropertyBounded(t *testing.T) {
	prop := func(steps []bool) bool {
		var f Fraction
		t0 := 0.0
		for i, v := range steps {
			f.Observe(t0, v)
			t0 += float64(i%3) + 0.5
		}
		f.Finish(t0 + 1)
		v := f.Value()
		return v >= 0 && v <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
