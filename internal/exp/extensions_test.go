package exp

import (
	"bytes"
	"slices"
	"strconv"
	"testing"

	"softstate/internal/report"
)

func TestExtConvergence(t *testing.T) {
	tab := runExp(t, "ext-convergence")
	// CDFs are monotone in time for each protocol column.
	for _, col := range []string{"SS", "SS+RT", "HS"} {
		prev := -1.0
		for i := 0; i < len(tab.Rows()); i++ {
			v := colFloat(t, tab, i, col)
			if v < prev-1e-9 || v < 0 || v > 1 {
				t.Fatalf("%s CDF broken at row %d: %v", col, i, v)
			}
			prev = v
		}
	}
	// Early in the curve the reliable protocols dominate SS at 20% loss.
	early := 1 // second time point
	if !(colFloat(t, tab, early, "SS+RT") > colFloat(t, tab, early, "SS")) {
		t.Fatal("reliable triggers should install updates sooner at high loss")
	}
}

func TestExtRepair(t *testing.T) {
	tab := runExp(t, "ext-repair")
	// Index rows by (loss, variant) → I.
	type key struct{ loss, variant string }
	inc := map[key]float64{}
	for i := 0; i < len(tab.Rows()); i++ {
		v, err := strconv.ParseFloat(tab.Rows()[i][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		inc[key{tab.Rows()[i][0], tab.Rows()[i][1]}] = v
	}
	const highLoss = "0.2"
	ss := inc[key{highLoss, "SS"}]
	for _, variant := range []string{"SS+staged", "SS+NACK", "SS+RT"} {
		if got := inc[key{highLoss, variant}]; !(got < ss) {
			t.Fatalf("%s (%v) should beat SS (%v) at 20%% loss", variant, got, ss)
		}
	}
}

// TestExtSensitivityDeterministic: the analytic pipeline sums each
// state's rates in model order, so repeated runs agree to the last bit
// and no cell carries a negative zero.
func TestExtSensitivityDeterministic(t *testing.T) {
	e, _ := ByID("ext-sensitivity")
	var first []byte
	for run := 0; run < 8; run++ {
		a, err := BuildArtifact(e, Options{Quick: true, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.EncodeArtifact(&buf, a); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(buf.Bytes(), []byte("-0.000")) {
			t.Fatalf("run %d prints a negative zero:\n%s", run, buf.Bytes())
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d differs from run 0", run)
		}
	}
}

func TestExtSensitivity(t *testing.T) {
	tab := runExp(t, "ext-sensitivity")
	if len(tab.Rows()) != 6 {
		t.Fatalf("rows = %d, want 6 parameters", len(tab.Rows()))
	}
	get := func(param, proto string) float64 {
		for i := 0; i < len(tab.Rows()); i++ {
			if tab.Rows()[i][0] == param {
				v, err := strconv.ParseFloat(tab.Rows()[i][slices.Index(tab.Columns, proto)], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("no row for %s", param)
		return 0
	}
	// SS's inconsistency is timeout-dominated (orphan wait ∝ T): strong
	// positive elasticity; HS is insensitive to the timeout entirely.
	if !(get("timeout", "SS") > 0.3) {
		t.Fatalf("SS timeout elasticity = %v, want strongly positive", get("timeout", "SS"))
	}
	if e := get("timeout", "HS"); e > 0.01 || e < -0.01 {
		t.Fatalf("HS timeout elasticity = %v, want ≈0", e)
	}
	// HS responds to the retransmission timer more than SS does.
	if !(get("retransmit", "HS") > get("retransmit", "SS")) {
		t.Fatal("HS should be more Γ-sensitive than SS")
	}
	// Everyone suffers from delay.
	for _, proto := range []string{"SS", "HS"} {
		if !(get("delay", proto) > 0) {
			t.Fatalf("%s delay elasticity should be positive", proto)
		}
	}
}
