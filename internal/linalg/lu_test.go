package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a, _ := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveSystem(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveIdentity(t *testing.T) {
	b := []float64{1, 2, 3, 4}
	x, err := SolveSystem(identity(4), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("x = %v, want %v", x, b)
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a, _ := fromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := SolveSystem(a, []float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-5) > 1e-14 {
		t.Fatalf("x = %v, want [7 5]", x)
	}
}

func TestSingularMatrixDetected(t *testing.T) {
	a, _ := fromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Factor(a); err != ErrSingular {
		t.Fatalf("Factor err = %v, want ErrSingular", err)
	}
}

func TestZeroMatrixSingular(t *testing.T) {
	if _, err := Factor(NewMatrix(3, 3)); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorRejectsNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	f, err := Factor(identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestDet(t *testing.T) {
	a, _ := fromRows([][]float64{
		{3, 8},
		{4, 6},
	})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.det(); math.Abs(d-(-14)) > 1e-12 {
		t.Fatalf("Det = %v, want -14", d)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// A pure row swap of the identity has determinant -1.
	a, _ := fromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.det(); math.Abs(d+1) > 1e-14 {
		t.Fatalf("Det = %v, want -1", d)
	}
}

func TestFactorDoesNotModifyInput(t *testing.T) {
	a, _ := fromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	before := a.Clone()
	if _, err := Factor(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if a.At(i, j) != before.At(i, j) {
				t.Fatal("Factor modified its input")
			}
		}
	}
}

func TestEmptySystem(t *testing.T) {
	x, err := SolveSystem(NewMatrix(0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 0 {
		t.Fatalf("x = %v, want empty", x)
	}
}

// randomDominant builds a random strictly diagonally dominant matrix, which
// is guaranteed non-singular, using the provided source.
func randomDominant(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			off += math.Abs(v)
		}
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		a.Set(i, i, sign*(off+1+rng.Float64()))
	}
	return a
}

// TestSolvePropertyRandomSystems is a property-based test: for random
// diagonally dominant systems, the solver must return a solution whose
// residual is tiny relative to the scale of the system.
func TestSolvePropertyRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw)%30 + 1
		local := rand.New(rand.NewSource(seed))
		a := randomDominant(local, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = local.Float64()*20 - 10
		}
		x, err := SolveSystem(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-9*(1+a.MaxAbs())
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSolveRoundTripProperty: construct x, compute b = A·x, solve, and
// compare against the original x.
func TestSolveRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := local.Intn(20) + 2
		a := randomDominant(local, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = local.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := SolveSystem(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolve50(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randomDominant(rng, 50)
	rhs := make([]float64, 50)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSystem(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// det returns the determinant of the factored matrix: the product of U's
// diagonal, negated once per transposition the row pivots compose.
func (f *LU) det() float64 {
	d := 1.0
	perm := slices.Clone(f.pivot)
	for i := range perm {
		for perm[i] != i {
			j := perm[i]
			perm[i], perm[j] = perm[j], perm[i]
			d = -d
		}
	}
	n := f.lu.Rows()
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// residual returns the max-norm of a·x − b.
func residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var max float64
	for i := range b {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
