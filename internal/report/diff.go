package report

import (
	"fmt"
	"math"
	"strconv"
)

// DefaultRelTol is the relative drift allowed on numeric cells with no
// per-column policy. Analytic frames are pure float math, so anything
// beyond ULP-scale platform noise is a real model change; live frames
// that need more headroom say so in their artifact's Checks.
const DefaultRelTol = 1e-6

// Checks is an artifact's embedded regression policy: how much each
// column may drift between two generations, and which qualitative
// orderings (the paper's claims) must hold in every generation. sigfig
// diff reads the policy from the *new* artifact, so a PR that changes an
// experiment ships its policy change in the same diff.
type Checks struct {
	// RelTol maps a column to its allowed relative drift. Keys are tried
	// most-specific first: "frame/column@row" (one cell: row is the row's
	// first-column value), then "frame/column", then "column", then ""
	// (the artifact-wide default), then DefaultRelTol. The per-cell form
	// is for a cell whose value is one sample path of a rare event: its
	// bound is the measured seed-to-seed spread, not drift headroom.
	RelTol map[string]float64 `json:"rel_tol,omitempty"`
	// AbsTol maps a column to an absolute drift floor (same key scheme).
	// A cell passes when |new−old| ≤ abs + rel·max(|old|,|new|), so noisy
	// near-zero live measurements need an absolute term.
	AbsTol map[string]float64 `json:"abs_tol,omitempty"`
	// Orderings are assertions evaluated on a single artifact (the new
	// one, during diff, and at generation time).
	Orderings []OrderRule `json:"orderings,omitempty"`
}

// tol resolves the (rel, abs) tolerance for the cell of a frame's column on
// the row whose first-column value is row.
func (c *Checks) tol(frame, column, row string) (rel, abs float64) {
	rel = DefaultRelTol
	look := func(m map[string]float64) (float64, bool) {
		if m == nil {
			return 0, false
		}
		for _, k := range []string{frame + "/" + column + "@" + row, frame + "/" + column, column, ""} {
			if v, ok := m[k]; ok {
				return v, true
			}
		}
		return 0, false
	}
	if c != nil {
		if v, ok := look(c.RelTol); ok {
			rel = v
		}
		if v, ok := look(c.AbsTol); ok {
			abs = v
		}
	}
	return rel, abs
}

// OrderRule asserts a qualitative ordering the paper's figures claim —
// e.g. "SS+RTR has the lowest inconsistency, SS the highest". It has two
// modes:
//
//   - Column mode (wide tables, protocols as columns): Lowest/Highest
//     name a column that must be ≤/≥ every column in Among, on every row
//     (restricted to rows whose first-column value is ≥ MinX, when set —
//     orderings are often meaningless at a sweep's degenerate origin).
//   - Row mode (long tables, protocols as rows): KeyColumn/ValueColumn
//     name the label and metric columns; the row labeled LowestKey must
//     have the minimum value, HighestKey the maximum.
type OrderRule struct {
	// Frame restricts the rule to the named frame; empty applies it to
	// every frame containing the referenced columns.
	Frame string `json:"frame,omitempty"`

	// Column mode.
	Lowest  string   `json:"lowest,omitempty"`
	Highest string   `json:"highest,omitempty"`
	Among   []string `json:"among,omitempty"`
	// MinX restricts column-mode checks to rows whose first-column value
	// parses as a float ≥ MinX.
	MinX *float64 `json:"min_x,omitempty"`

	// Row mode.
	KeyColumn   string `json:"key_column,omitempty"`
	ValueColumn string `json:"value_column,omitempty"`
	LowestKey   string `json:"lowest_key,omitempty"`
	HighestKey  string `json:"highest_key,omitempty"`
	// AmongKeys, when set, restricts a row-mode rule to rows with these
	// keys — e.g. "SS+RTR lowest among the soft-state variants" leaves HS
	// out of the comparison.
	AmongKeys []string `json:"among_keys,omitempty"`
}

// CheckOrderings evaluates every ordering rule of the artifact's Checks
// and returns one message per violation.
func CheckOrderings(a *Artifact) []string {
	if a == nil || a.Checks == nil {
		return nil
	}
	var out []string
	for _, rule := range a.Checks.Orderings {
		for _, f := range a.Frames {
			if rule.Frame != "" && rule.Frame != f.Name {
				continue
			}
			out = append(out, rule.check(a.ID, f)...)
		}
	}
	return out
}

func (r OrderRule) check(id string, f Frame) []string {
	if r.KeyColumn != "" {
		return r.checkRows(id, f)
	}
	return r.checkColumns(id, f)
}

// checkColumns runs the wide-table mode.
func (r OrderRule) checkColumns(id string, f Frame) []string {
	idx := make(map[string]int, len(r.Among))
	for _, c := range r.Among {
		j := f.columnIndex(c)
		if j < 0 {
			return nil // rule doesn't apply to this frame
		}
		idx[c] = j
	}
	for _, c := range []string{r.Lowest, r.Highest} {
		if c != "" && f.columnIndex(c) < 0 {
			return nil
		}
	}
	var out []string
	for i, row := range f.Rows {
		if r.MinX != nil {
			x, err := strconv.ParseFloat(row[0], 64)
			if err != nil || x < *r.MinX {
				continue
			}
		}
		val := func(c string) (float64, bool) {
			j := idx[c]
			if j >= len(row) {
				return 0, false
			}
			v, err := strconv.ParseFloat(row[j], 64)
			return v, err == nil
		}
		if r.Lowest != "" {
			lo, ok := val(r.Lowest)
			if ok {
				for _, c := range r.Among {
					if c == r.Lowest {
						continue
					}
					if v, ok := val(c); ok && v < lo {
						out = append(out, fmt.Sprintf(
							"%s: frame %q row %d (%s): %s=%g below %s=%g, want %s lowest",
							id, f.Name, i, row[0], c, v, r.Lowest, lo, r.Lowest))
					}
				}
			}
		}
		if r.Highest != "" {
			hi, ok := val(r.Highest)
			if ok {
				for _, c := range r.Among {
					if c == r.Highest {
						continue
					}
					if v, ok := val(c); ok && v > hi {
						out = append(out, fmt.Sprintf(
							"%s: frame %q row %d (%s): %s=%g above %s=%g, want %s highest",
							id, f.Name, i, row[0], c, v, r.Highest, hi, r.Highest))
					}
				}
			}
		}
	}
	return out
}

// checkRows runs the long-table mode.
func (r OrderRule) checkRows(id string, f Frame) []string {
	kj, vj := f.columnIndex(r.KeyColumn), f.columnIndex(r.ValueColumn)
	if kj < 0 || vj < 0 {
		return nil
	}
	among := map[string]bool{}
	for _, k := range r.AmongKeys {
		among[k] = true
	}
	vals := map[string]float64{}
	for _, row := range f.Rows {
		if kj >= len(row) || vj >= len(row) {
			continue
		}
		if len(among) > 0 && !among[row[kj]] {
			continue
		}
		if v, err := strconv.ParseFloat(row[vj], 64); err == nil {
			vals[row[kj]] = v
		}
	}
	var out []string
	if r.LowestKey != "" {
		if lo, ok := vals[r.LowestKey]; ok {
			for k, v := range vals {
				if v < lo {
					out = append(out, fmt.Sprintf(
						"%s: frame %q: %s %s=%g below %s=%g, want %s lowest",
						id, f.Name, r.ValueColumn, k, v, r.LowestKey, lo, r.LowestKey))
				}
			}
		}
	}
	if r.HighestKey != "" {
		if hi, ok := vals[r.HighestKey]; ok {
			for k, v := range vals {
				if v > hi {
					out = append(out, fmt.Sprintf(
						"%s: frame %q: %s %s=%g above %s=%g, want %s highest",
						id, f.Name, r.ValueColumn, k, v, r.HighestKey, hi, r.HighestKey))
				}
			}
		}
	}
	sortStable(out)
	return out
}

// sortStable orders violation messages deterministically (map iteration
// above is not).
func sortStable(msgs []string) {
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0 && msgs[j] < msgs[j-1]; j-- {
			msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
		}
	}
}

// DiffArtifacts compares a regenerated artifact (new) against a baseline
// (old) under new's embedded Checks, and returns one message per
// violation: structural mismatches (schema, frames, columns, row
// counts), numeric cells drifting beyond tolerance, non-numeric cells
// changing at all, and ordering-rule violations in the new artifact.
// Version and Telemetry are metadata — recorded, never gated.
func DiffArtifacts(old, new *Artifact) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: ", new.ID)+fmt.Sprintf(format, args...))
	}
	if old.Schema != new.Schema {
		fail("schema %d vs baseline %d — regenerate the baseline", new.Schema, old.Schema)
		return out
	}
	if len(old.Frames) != len(new.Frames) {
		fail("%d frames vs baseline %d", len(new.Frames), len(old.Frames))
		return out
	}
	for i, nf := range new.Frames {
		of := old.Frames[i]
		if of.Name != nf.Name {
			fail("frame %d named %q vs baseline %q", i, nf.Name, of.Name)
			continue
		}
		if !equalStrings(of.Columns, nf.Columns) {
			fail("frame %q columns %v vs baseline %v", nf.Name, nf.Columns, of.Columns)
			continue
		}
		if len(of.Rows) != len(nf.Rows) {
			fail("frame %q has %d rows vs baseline %d", nf.Name, len(nf.Rows), len(of.Rows))
			continue
		}
		for ri := range nf.Rows {
			orow, nrow := of.Rows[ri], nf.Rows[ri]
			if len(orow) != len(nrow) {
				fail("frame %q row %d arity %d vs baseline %d", nf.Name, ri, len(nrow), len(orow))
				continue
			}
			for ci := range nrow {
				oc, nc := orow[ci], nrow[ci]
				if oc == nc {
					continue
				}
				ov, oerr := strconv.ParseFloat(oc, 64)
				nv, nerr := strconv.ParseFloat(nc, 64)
				col := nf.Columns[ci]
				if oerr != nil || nerr != nil {
					fail("frame %q row %d (%s) column %q: %q vs baseline %q",
						nf.Name, ri, nrow[0], col, nc, oc)
					continue
				}
				rel, abs := new.Checks.tol(nf.Name, col, nrow[0])
				limit := abs + rel*math.Max(math.Abs(ov), math.Abs(nv))
				if d := math.Abs(nv - ov); d > limit {
					fail("frame %q row %d (%s) column %q: %g vs baseline %g (|Δ|=%.4g > %.4g)",
						nf.Name, ri, nrow[0], col, nv, ov, d, limit)
				}
			}
		}
	}
	out = append(out, CheckOrderings(new)...)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
