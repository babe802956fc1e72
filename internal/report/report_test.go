package report

import (
	"strconv"
	"strings"
	"testing"
)

func TestAddRowArityPanics(t *testing.T) {
	tab := New("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestNumericRowFormatting(t *testing.T) {
	tab := New("t", "x", "y")
	tab.AddNumericRow(1.5, 0.000123456789)
	if tab.Rows()[0][0] != "1.5" {
		t.Fatalf("cell = %q", tab.Rows()[0][0])
	}
	v, err := strconv.ParseFloat(tab.Rows()[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.000123 || v > 0.000124 {
		t.Fatalf("parsed %v", v)
	}
}

func TestPrettyAlignment(t *testing.T) {
	tab := New("demo", "name", "value")
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.String()
	if !strings.Contains(out, "# demo") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// The value column of both rows starts at the same offset.
	r1, r2 := lines[3], lines[4]
	if strings.Index(r2, "22") < strings.Index(r1, "1") {
		t.Fatalf("misaligned rows:\n%s\n%s", r1, r2)
	}
}

func TestPrettyNoTitle(t *testing.T) {
	tab := New("", "x")
	tab.AddRow("1")
	if strings.Contains(tab.String(), "#") {
		t.Fatal("untitled table should not render a title line")
	}
}

func TestRowsAccessor(t *testing.T) {
	tab := New("t", "x")
	tab.AddRow("1")
	if len(tab.Rows()) != 1 || len(tab.Rows()) != 1 {
		t.Fatal("accessor mismatch")
	}
}
