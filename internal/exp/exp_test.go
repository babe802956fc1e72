package exp

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"softstate/internal/report"
)

func quick() Options { return Options{Quick: true, Seed: 42} }

func runExp(t *testing.T, id string) *report.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	a, err := BuildArtifact(e, quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	tab := a.Frames[0].Table()
	if len(tab.Rows()) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1",
		"fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7",
		"fig8a", "fig8b", "fig9", "fig10a", "fig10b",
		"fig11a", "fig11b", "fig12a", "fig12b",
		"fig17", "fig18a", "fig18b", "fig19a", "fig19b",
		"ablation-timerdist", "ablation-fifo", "ablation-notification",
		"ablation-multihop-sim", "ablation-cost-weight",
		"ext-convergence", "ext-repair", "ext-sensitivity",
		"ext-loss50", "ext-chain20", "ext-fanout1024", "ext-topology",
		"ext-chaos", "ext-census",
		"live5",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}

func TestAllOrdering(t *testing.T) {
	all := All()
	if all[0].ID != "table1" {
		t.Fatalf("first experiment = %s, want table1", all[0].ID)
	}
	// fig4a must precede fig10a despite lexicographic order.
	pos := map[string]int{}
	for i, e := range all {
		pos[e.ID] = i
	}
	if pos["fig4a"] > pos["fig10a"] {
		t.Fatal("figure ordering is lexicographic, want numeric")
	}
	if pos["fig19b"] > pos["ablation-fifo"] {
		t.Fatal("ablations should come after figures")
	}
}

func TestExperimentMetadata(t *testing.T) {
	for _, e := range All() {
		if e.Title == "" || e.Description == "" {
			t.Errorf("%s: missing title or description", e.ID)
		}
		if (e.Run == nil) == (e.Artifact == nil) {
			t.Errorf("%s: want exactly one of Run and Artifact set", e.ID)
		}
	}
}

func colFloat(t *testing.T, tab *report.Table, row int, col string) float64 {
	t.Helper()
	j := slices.Index(tab.Columns, col)
	if j < 0 {
		t.Fatalf("no column %q in %v", col, tab.Columns)
	}
	v, err := strconv.ParseFloat(tab.Rows()[row][j], 64)
	if err != nil {
		t.Fatalf("cell (%d,%s): %v", row, col, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	tab := runExp(t, "table1")
	if len(tab.Rows()) != 7 {
		t.Fatalf("Table I rows = %d, want 7", len(tab.Rows()))
	}
	if slices.Index(tab.Columns, "SS") < 0 || slices.Index(tab.Columns, "HS") < 0 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	// Absent transitions render as "-".
	found := false
	for i := 0; i < len(tab.Rows()); i++ {
		if strings.HasPrefix(tab.Rows()[i][0], "(-,1)1→(-,1)2") {
			found = true
			if tab.Rows()[i][slices.Index(tab.Columns, "SS")] != "-" {
				t.Fatal("SS should have no removal-lost transition")
			}
		}
	}
	if !found {
		t.Fatal("removal-lost row missing")
	}
}

func TestFig4Shapes(t *testing.T) {
	a := runExp(t, "fig4a")
	b := runExp(t, "fig4b")
	// Monotone decreasing I and Λ for SS across the sweep.
	for _, tab := range []*report.Table{a, b} {
		prev := colFloat(t, tab, 0, "SS")
		for i := 1; i < len(tab.Rows()); i++ {
			v := colFloat(t, tab, i, "SS")
			if v >= prev {
				t.Fatalf("SS column not decreasing at row %d", i)
			}
			prev = v
		}
	}
	// Long sessions: SS+RTR ≈ HS on consistency.
	last := len(a.Rows()) - 1
	ssrtr := colFloat(t, a, last, "SS+RTR")
	hs := colFloat(t, a, last, "HS")
	if ssrtr > 2*hs || hs > 2*ssrtr {
		t.Fatalf("SS+RTR (%v) and HS (%v) should be comparable", ssrtr, hs)
	}
}

func TestFig5Shapes(t *testing.T) {
	a := runExp(t, "fig5a")
	for _, col := range []string{"SS", "SS+ER", "SS+RT", "SS+RTR", "HS"} {
		prev := -1.0
		for i := 0; i < len(a.Rows()); i++ {
			v := colFloat(t, a, i, col)
			if v < prev {
				t.Fatalf("%s not increasing with loss at row %d", col, i)
			}
			prev = v
		}
	}
	b := runExp(t, "fig5b")
	// Approximately linear growth in delay for SS: the ratio of increments
	// should stay moderate.
	first := colFloat(t, b, 0, "SS")
	lastV := colFloat(t, b, len(b.Rows())-1, "SS")
	if lastV <= first {
		t.Fatal("SS inconsistency should grow with delay")
	}
}

func TestFig6And7Shapes(t *testing.T) {
	a := runExp(t, "fig6a")
	hs0 := colFloat(t, a, 0, "HS")
	for i := 1; i < len(a.Rows()); i++ {
		if v := colFloat(t, a, i, "HS"); v != hs0 {
			t.Fatalf("HS inconsistency varies with R: %v vs %v", v, hs0)
		}
	}
	b := runExp(t, "fig6b")
	// Message rate decreasing in R for SS.
	prev := colFloat(t, b, 0, "SS")
	for i := 1; i < len(b.Rows()); i++ {
		v := colFloat(t, b, i, "SS")
		if v >= prev {
			t.Fatalf("SS rate not decreasing in R at row %d", i)
		}
		prev = v
	}
	c := runExp(t, "fig7")
	// SS has an interior optimum: the minimum is not at either edge.
	min, argmin := 1e18, -1
	for i := 0; i < len(c.Rows()); i++ {
		if v := colFloat(t, c, i, "SS"); v < min {
			min, argmin = v, i
		}
	}
	if argmin == 0 || argmin == len(c.Rows())-1 {
		t.Fatalf("SS integrated-cost optimum at edge row %d", argmin)
	}
}

func TestFig8Shapes(t *testing.T) {
	a := runExp(t, "fig8a")
	// T < R (first rows) must be far worse than the best for SS.
	worst := colFloat(t, a, 0, "SS")
	best := worst
	for i := 0; i < len(a.Rows()); i++ {
		if v := colFloat(t, a, i, "SS"); v < best {
			best = v
		}
	}
	if worst < 5*best {
		t.Fatalf("short-timeout penalty too small: worst=%v best=%v", worst, best)
	}
	b := runExp(t, "fig8b")
	// HS is the most Γ-sensitive: spread across the sweep is largest.
	spread := func(col string) float64 {
		lo, hi := 1e18, -1e18
		for i := 0; i < len(b.Rows()); i++ {
			v := colFloat(t, b, i, col)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if spread("HS") <= spread("SS") {
		t.Fatalf("HS Γ-spread (%v) should exceed SS (%v)", spread("HS"), spread("SS"))
	}
}

func TestTradeoffTables(t *testing.T) {
	for _, id := range []string{"fig9", "fig10a", "fig10b"} {
		tab := runExp(t, id)
		if slices.Index(tab.Columns, "protocol") < 0 || slices.Index(tab.Columns, "inconsistency") < 0 ||
			slices.Index(tab.Columns, "message_overhead") < 0 {
			t.Fatalf("%s columns = %v", id, tab.Columns)
		}
		// Five protocols per sweep point.
		if len(tab.Rows())%5 != 0 {
			t.Fatalf("%s rows = %d, want multiple of 5", id, len(tab.Rows()))
		}
	}
}

func TestValidationTables(t *testing.T) {
	for _, id := range []string{"fig11a", "fig12a"} {
		tab := runExp(t, id)
		ai, si := slices.Index(tab.Columns, "analytic"), slices.Index(tab.Columns, "sim")
		if ai < 0 || si < 0 {
			t.Fatalf("%s columns = %v", id, tab.Columns)
		}
		// Simulated I within a loose factor of analytic everywhere.
		for i := 0; i < len(tab.Rows()); i++ {
			ana, err := strconv.ParseFloat(tab.Rows()[i][ai], 64)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := strconv.ParseFloat(tab.Rows()[i][si], 64)
			if err != nil {
				t.Fatal(err)
			}
			if ana <= 0 {
				t.Fatalf("%s: nonpositive analytic value", id)
			}
			if sim < ana/3 || sim > ana*3 {
				t.Errorf("%s row %d: sim %v vs analytic %v beyond 3x", id, i, sim, ana)
			}
		}
	}
}

func TestFig17Table(t *testing.T) {
	tab := runExp(t, "fig17")
	if len(tab.Rows()) != 20 {
		t.Fatalf("rows = %d, want 20", len(tab.Rows()))
	}
	// Monotone per-hop growth for SS.
	prev := -1.0
	for i := 0; i < len(tab.Rows()); i++ {
		v := colFloat(t, tab, i, "SS")
		if v < prev {
			t.Fatalf("SS per-hop inconsistency fell at hop %d", i+1)
		}
		prev = v
	}
}

func TestFig18And19Tables(t *testing.T) {
	a := runExp(t, "fig18a")
	prev := -1.0
	for i := 0; i < len(a.Rows()); i++ {
		v := colFloat(t, a, i, "SS")
		if v <= prev {
			t.Fatalf("fig18a SS not increasing at row %d", i)
		}
		prev = v
	}
	b := runExp(t, "fig18b")
	lastRow := len(b.Rows()) - 1
	if hs := colFloat(t, b, lastRow, "HS"); hs >= colFloat(t, b, lastRow, "SS") {
		t.Fatal("fig18b: HS rate should be below SS at N=20")
	}
	c := runExp(t, "fig19a")
	if slices.Index(c.Columns, "SS+RT") < 0 {
		t.Fatalf("fig19a columns = %v", c.Columns)
	}
	d := runExp(t, "fig19b")
	// Rate decreasing in R for SS.
	prev = colFloat(t, d, 0, "SS")
	for i := 1; i < len(d.Rows()); i++ {
		v := colFloat(t, d, i, "SS")
		if v >= prev {
			t.Fatalf("fig19b SS rate not decreasing at row %d", i)
		}
		prev = v
	}
}

func TestAblationTimerDist(t *testing.T) {
	tab := runExp(t, "ablation-timerdist")
	// Find SS rows for deterministic and exponential timers.
	var det, expo float64
	for i := 0; i < len(tab.Rows()); i++ {
		if tab.Rows()[i][1] != "SS" {
			continue
		}
		v, err := strconv.ParseFloat(tab.Rows()[i][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch tab.Rows()[i][0] {
		case "deterministic":
			det = v
		case "exponential":
			expo = v
		}
	}
	if expo < 3*det {
		t.Fatalf("exponential timeout should collapse consistency: det=%v exp=%v", det, expo)
	}
}

func TestAblationNotification(t *testing.T) {
	tab := runExp(t, "ablation-notification")
	if len(tab.Rows()) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows()))
	}
	with, err := strconv.ParseFloat(tab.Rows()[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	without, err := strconv.ParseFloat(tab.Rows()[1][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if with >= without {
		t.Fatalf("notification should improve consistency: with=%v without=%v", with, without)
	}
}

func TestAblationCostWeight(t *testing.T) {
	tab := runExp(t, "ablation-cost-weight")
	// At tiny α the cheapest protocol (HS) should win; at huge α a
	// consistency-focused protocol (SS+RTR or HS) should win.
	first := tab.Rows()[0][1]
	if first != "HS" {
		t.Fatalf("at α→0 the winner is %s, want HS (lowest overhead)", first)
	}
	last := tab.Rows()[len(tab.Rows())-1][1]
	if last != "SS+RTR" && last != "HS" {
		t.Fatalf("at huge α the winner is %s, want a reliable-removal protocol", last)
	}
}

func TestOtherAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed ablations")
	}
	runExp(t, "ablation-fifo")
	runExp(t, "ablation-multihop-sim")
}
