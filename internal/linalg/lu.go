package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix is numerically singular, i.e. a
// pivot smaller than the singularity threshold was encountered during
// factorization.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial (row) pivoting: P·A = L·U.
// L has an implicit unit diagonal and is stored in the strictly lower
// triangle of lu; U occupies the upper triangle including the diagonal.
type LU struct {
	lu    *Matrix
	pivot []int
}

// pivotTolerance is the relative threshold below which a pivot is treated
// as zero. It is scaled by the largest absolute entry of the input matrix
// so that uniformly scaled systems factor identically.
const pivotTolerance = 1e-13

// Factor computes the LU factorization of the square matrix a.
// The input is not modified. It returns ErrSingular if a pivot collapses.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: cannot factor non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	scale := a.MaxAbs()
	if scale == 0 {
		if n == 0 {
			return &LU{lu: lu, pivot: piv}, nil
		}
		return nil, ErrSingular
	}
	threshold := pivotTolerance * scale

	for k := 0; k < n; k++ {
		// Choose the row with the largest magnitude in column k.
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < threshold {
			return nil, ErrSingular
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivotVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivotVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: piv}, nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch: n=%d, len(b)=%d", n, len(b))
	}
	x := make([]float64, n)
	// Apply permutation: x = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : i*n+i]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n+i+1 : (i+1)*n]
		s := x[i]
		for j, v := range row {
			s -= v * x[i+1+j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// SolveSystem factors a and solves a·x = b in one call, with one step of
// iterative refinement to sharpen the residual. a and b are not modified.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	x, err := f.Solve(b)
	if err != nil {
		return nil, err
	}
	// One round of iterative refinement: r = b - A·x; x += A⁻¹r.
	ax := a.MulVec(x)
	r := make([]float64, len(b))
	var rn float64
	for i := range r {
		r[i] = b[i] - ax[i]
		rn += r[i] * r[i]
	}
	if rn > 0 {
		dx, err := f.Solve(r)
		if err == nil {
			for i := range x {
				x[i] += dx[i]
			}
		}
	}
	return x, nil
}
