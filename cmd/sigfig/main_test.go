package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"softstate/internal/exp"
)

func mustResolve(t *testing.T, ids ...string) []exp.Experiment {
	t.Helper()
	targets, err := resolve(ids)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// genInto regenerates the given experiments into a fresh temp dir and
// returns it.
func genInto(t *testing.T, o exp.Options, version string, ids ...string) string {
	t.Helper()
	dir := t.TempDir()
	if err := generate(mustResolve(t, ids...), o, dir, version, nil, nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestResolve(t *testing.T) {
	all, err := resolve([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(exp.All()) {
		t.Fatalf("resolve(all) returned %d of %d experiments", len(all), len(exp.All()))
	}
	two := mustResolve(t, "fig5a", "table1")
	if len(two) != 2 || two[0].ID != "fig5a" || two[1].ID != "table1" {
		t.Fatalf("explicit resolve wrong: %+v", two)
	}
	if _, err := resolve([]string{"fig9000"}); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// TestGenerateDeterministic: two same-seed generations are byte-identical,
// and both file forms exist for every target.
func TestGenerateDeterministic(t *testing.T) {
	o := exp.Options{Quick: true, Seed: 42}
	a := genInto(t, o, "v-test", "fig5a", "table1")
	b := genInto(t, o, "v-test", "fig5a", "table1")
	for _, name := range []string{"fig5a.json", "fig5a.md", "table1.json", "table1.md"} {
		ba, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("%s differs between same-seed generations", name)
		}
	}
}

// TestDiffDirsCleanAndVersionIgnored: a regenerated set diffs clean
// against itself even when the recorded version differs.
func TestDiffDirsClean(t *testing.T) {
	o := exp.Options{Quick: true, Seed: 42}
	old := genInto(t, o, "v-old", "fig5a", "table1")
	new_ := genInto(t, o, "v-new", "fig5a", "table1")
	msgs, err := diffDirs(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("clean regeneration reported violations: %v", msgs)
	}
}

// TestDiffDirsDetectsDrift: perturbing one numeric cell beyond the
// default tolerance produces a violation naming the cell.
func TestDiffDirsDetectsDrift(t *testing.T) {
	o := exp.Options{Quick: true, Seed: 42}
	old := genInto(t, o, "v", "fig5a")
	drifted := genInto(t, o, "v", "fig5a")
	path := filepath.Join(drifted, "fig5a.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Swap one numeric cell for a clearly different value.
	mutated := bytes.Replace(raw, []byte(`"0.`), []byte(`"9.`), 1)
	if bytes.Equal(mutated, raw) {
		t.Fatal("mutation did not apply — fixture assumption broken")
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	msgs, err := diffDirs(old, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Fatal("drifted artifact diffed clean")
	}
	if !strings.Contains(strings.Join(msgs, "\n"), "fig5a") {
		t.Fatalf("violation does not name the artifact: %v", msgs)
	}
}

// TestDiffDirsMissingAndExtra: artifacts on only one side are reported.
func TestDiffDirsMissingAndExtra(t *testing.T) {
	o := exp.Options{Quick: true, Seed: 42}
	old := genInto(t, o, "v", "fig5a", "table1")
	new_ := genInto(t, o, "v", "fig5a", "fig5b")
	msgs, err := diffDirs(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "table1: missing") {
		t.Fatalf("missing artifact not reported: %v", msgs)
	}
	if !strings.Contains(joined, "fig5b: not in baseline") {
		t.Fatalf("extra artifact not reported: %v", msgs)
	}
}

func TestDiffDirsEmptyDir(t *testing.T) {
	if _, err := diffDirs(t.TempDir(), t.TempDir()); err == nil {
		t.Fatal("empty artifact dirs accepted")
	}
}
