package linalg

import (
	"fmt"
	"math"
	"testing"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	NewMatrix(-1, 2)
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m, err := fromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Fatalf("unexpected contents:\n%v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := fromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := fromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("got %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestIdentity(t *testing.T) {
	m := identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := identity(2)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("unexpected transpose contents:\n%v", tr)
	}
}

func TestMulVec(t *testing.T) {
	m, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", y)
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	m := identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dimension mismatch")
		}
	}()
	m.MulVec([]float64{1, 2, 3})
}

func TestRowCopy(t *testing.T) {
	m, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	r := m.row(1)
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Fatal("Row returned a view, want a copy")
	}
}

func TestMaxAbs(t *testing.T) {
	m, _ := fromRows([][]float64{{1, -7}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
	if got := NewMatrix(0, 0).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs of empty = %v, want 0", got)
	}
}

func TestStringRendering(t *testing.T) {
	m := identity(2)
	if s := m.String(); s == "" {
		t.Fatal("String returned empty output")
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	// Light structural check: transpose twice is the identity operation.
	m, _ := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	tt := m.Transpose().Transpose()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(tt.At(i, j)-m.At(i, j)) > 0 {
				t.Fatalf("double transpose altered (%d,%d)", i, j)
			}
		}
	}
}

// fromRows builds a matrix from a slice of equally sized rows.
// It returns an error if the rows are ragged.
func fromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged rows: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// row returns a copy of row i.
func (m *Matrix) row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}
