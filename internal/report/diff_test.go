package report

import (
	"bytes"
	"strings"
	"testing"
)

func mkArtifact() *Artifact {
	t := New("consistency", "loss", "SS", "SS+RTR")
	t.AddRow("0.1", "0.05", "0.001")
	t.AddRow("0.3", "0.12", "0.004")
	return &Artifact{
		Schema: ArtifactSchema,
		ID:     "figX",
		Title:  "test figure",
		Mode:   "quick",
		Seed:   42,
		Frames: []Frame{NewFrame(FrameAnalytic, t)},
	}
}

func clone(t *testing.T, a *Artifact) *Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDiffIdentical(t *testing.T) {
	a := mkArtifact()
	b := clone(t, a)
	if msgs := DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("identical artifacts should not diff: %v", msgs)
	}
}

func TestDiffWithinTolerance(t *testing.T) {
	a := mkArtifact()
	b := clone(t, a)
	b.Checks = &Checks{RelTol: map[string]float64{"SS": 0.5}}
	b.Frames[0].Rows[0][1] = "0.06" // 20% off baseline 0.05, tol 50%
	if msgs := DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("drift within tolerance should pass: %v", msgs)
	}
}

func TestDiffBeyondTolerance(t *testing.T) {
	a := mkArtifact()
	b := clone(t, a)
	b.Checks = &Checks{RelTol: map[string]float64{"SS": 0.1}}
	b.Frames[0].Rows[0][1] = "0.06" // 20% off, tol 10%
	msgs := DiffArtifacts(a, b)
	if len(msgs) != 1 || !strings.Contains(msgs[0], `column "SS"`) {
		t.Fatalf("want one SS violation, got %v", msgs)
	}
}

func TestDiffFrameQualifiedTolerance(t *testing.T) {
	a := mkArtifact()
	b := clone(t, a)
	// Frame-qualified key beats the bare-column key.
	b.Checks = &Checks{RelTol: map[string]float64{
		"analytic/SS": 0.5,
		"SS":          1e-9,
	}}
	b.Frames[0].Rows[0][1] = "0.06"
	if msgs := DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("frame-qualified tolerance should win: %v", msgs)
	}
}

// TestDiffCellQualifiedTolerance: a "frame/column@row" key bounds one
// cell — the same column drifts freely on that row and not on the next.
func TestDiffCellQualifiedTolerance(t *testing.T) {
	a := mkArtifact()
	b := clone(t, a)
	b.Checks = &Checks{RelTol: map[string]float64{"analytic/SS@0.1": 0.5}}
	b.Frames[0].Rows[0][1] = "0.06"
	if msgs := DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("cell-qualified tolerance should cover its cell: %v", msgs)
	}
	b.Frames[0].Rows[1][1] = "0.14" // row 0.3 has no key of its own
	msgs := DiffArtifacts(a, b)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "row 1 (0.3)") {
		t.Fatalf("want one violation on row 0.3, got %v", msgs)
	}
}

func TestDiffAbsoluteTolerance(t *testing.T) {
	a := mkArtifact()
	a.Frames[0].Rows[0][2] = "0"
	b := clone(t, a)
	b.Checks = &Checks{AbsTol: map[string]float64{"SS+RTR": 0.01}}
	b.Frames[0].Rows[0][2] = "0.005" // rel tol can't save a zero baseline
	if msgs := DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("abs tolerance should absorb near-zero drift: %v", msgs)
	}
}

func TestDiffNonNumericExact(t *testing.T) {
	a := mkArtifact()
	a.Frames[0].Rows[0][1] = "n/a"
	b := clone(t, a)
	b.Frames[0].Rows[0][1] = "none"
	msgs := DiffArtifacts(a, b)
	if len(msgs) != 1 || !strings.Contains(msgs[0], `"none"`) {
		t.Fatalf("non-numeric cells must match exactly, got %v", msgs)
	}
}

func TestDiffStructuralMismatches(t *testing.T) {
	a := mkArtifact()

	b := clone(t, a)
	b.Schema++
	if msgs := DiffArtifacts(a, b); len(msgs) != 1 || !strings.Contains(msgs[0], "schema") {
		t.Fatalf("schema mismatch: %v", msgs)
	}

	b = clone(t, a)
	b.Frames[0].Columns[2] = "HS"
	if msgs := DiffArtifacts(a, b); len(msgs) != 1 || !strings.Contains(msgs[0], "columns") {
		t.Fatalf("column mismatch: %v", msgs)
	}

	b = clone(t, a)
	b.Frames[0].Rows = b.Frames[0].Rows[:1]
	if msgs := DiffArtifacts(a, b); len(msgs) != 1 || !strings.Contains(msgs[0], "rows") {
		t.Fatalf("row-count mismatch: %v", msgs)
	}

	b = clone(t, a)
	b.Frames = nil
	if msgs := DiffArtifacts(a, b); len(msgs) != 1 || !strings.Contains(msgs[0], "frames") {
		t.Fatalf("frame-count mismatch: %v", msgs)
	}
}

func TestDiffIgnoresVersionAndTelemetry(t *testing.T) {
	a := mkArtifact()
	a.Version = "v1.0.0"
	a.Telemetry = map[string]TelemetrySnapshot{"SS": {"x": 1}}
	b := clone(t, a)
	b.Version = "v1.0.1-5-gdeadbee"
	b.Telemetry = map[string]TelemetrySnapshot{"SS": {"x": 99}}
	if msgs := DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("version/telemetry are metadata, got %v", msgs)
	}
}

func TestOrderingsColumnMode(t *testing.T) {
	a := mkArtifact()
	a.Checks = &Checks{Orderings: []OrderRule{{
		Lowest:  "SS+RTR",
		Highest: "SS",
		Among:   []string{"SS", "SS+RTR"},
	}}}
	if msgs := CheckOrderings(a); len(msgs) != 0 {
		t.Fatalf("ordering holds in fixture, got %v", msgs)
	}

	// Violate: SS dips below SS+RTR on one row.
	a.Frames[0].Rows[1][1] = "0.0001"
	msgs := CheckOrderings(a)
	if len(msgs) != 2 { // both "SS+RTR not lowest" and "SS not highest"
		t.Fatalf("want 2 ordering violations, got %v", msgs)
	}
	for _, m := range msgs {
		if !strings.Contains(m, "row 1") {
			t.Fatalf("violation should name the row: %v", msgs)
		}
	}
}

func TestOrderingsMinX(t *testing.T) {
	a := mkArtifact()
	a.Frames[0].Rows[0][1] = "0.0001" // SS below SS+RTR at loss 0.1
	minX := 0.2
	a.Checks = &Checks{Orderings: []OrderRule{{
		Highest: "SS",
		Among:   []string{"SS", "SS+RTR"},
		MinX:    &minX,
	}}}
	if msgs := CheckOrderings(a); len(msgs) != 0 {
		t.Fatalf("row below MinX must be skipped, got %v", msgs)
	}
}

func TestOrderingsRowMode(t *testing.T) {
	tab := New("five-variant", "protocol", "I")
	tab.AddRow("SS", "0.12")
	tab.AddRow("SS+RTR", "0.001")
	tab.AddRow("HS", "0.02")
	a := &Artifact{
		Schema: ArtifactSchema, ID: "live5", Mode: "quick",
		Frames: []Frame{NewFrame(FrameLive, tab)},
		Checks: &Checks{Orderings: []OrderRule{{
			Frame:       FrameLive,
			KeyColumn:   "protocol",
			ValueColumn: "I",
			LowestKey:   "SS+RTR",
			HighestKey:  "SS",
		}}},
	}
	if msgs := CheckOrderings(a); len(msgs) != 0 {
		t.Fatalf("row-mode ordering holds in fixture, got %v", msgs)
	}

	a.Frames[0].Rows[2][1] = "0.5" // HS above SS
	msgs := CheckOrderings(a)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "HS") {
		t.Fatalf("want one HS violation, got %v", msgs)
	}

	// AmongKeys excludes HS from the comparison entirely.
	a.Checks.Orderings[0].AmongKeys = []string{"SS", "SS+RTR"}
	if msgs := CheckOrderings(a); len(msgs) != 0 {
		t.Fatalf("HS outside AmongKeys must not violate, got %v", msgs)
	}
}

func TestOrderingsSkipFramesMissingColumns(t *testing.T) {
	a := mkArtifact()
	a.Checks = &Checks{Orderings: []OrderRule{{
		Lowest: "SS+RTR",
		Among:  []string{"SS+RTR", "nonexistent"},
	}}}
	if msgs := CheckOrderings(a); len(msgs) != 0 {
		t.Fatalf("rule referencing absent columns must not apply, got %v", msgs)
	}
}

func TestDiffRunsOrderingsOnNew(t *testing.T) {
	a := mkArtifact()
	b := clone(t, a)
	b.Checks = &Checks{Orderings: []OrderRule{{
		Lowest: "SS",
		Among:  []string{"SS", "SS+RTR"},
	}}}
	msgs := DiffArtifacts(a, b)
	if len(msgs) == 0 || !strings.Contains(msgs[0], "lowest") {
		t.Fatalf("diff must evaluate orderings on the new artifact: %v", msgs)
	}
}
