package softstate_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	docSpan = regexp.MustCompile("`[^`\n]+`")
	// A repo path inside a backticked span: one of the tracked top-level
	// directories, optionally written ./dir, and not the tail of some other
	// path (/tmp/figures/…).
	docPath      = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:cmd|internal|examples|scripts|benchmark|figures)/[\w./*-]*)`)
	docBenchmark = regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	benchFunc    = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
)

// TestDocsNameOnlyWhatExists keeps README.md and DESIGN.md from describing
// a tree that is gone: every backticked repo path must exist (a
// pkg.Symbol suffix is read as its package directory, a * as a glob), and
// every Benchmark… identifier must be a prefix of some benchmark function
// in a _test.go file, the way -bench would match it.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	var benchmarks []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			benchmarks = append(benchmarks, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllString(string(text), -1) {
			for _, m := range docPath.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				if p := strings.TrimRight(m[1], "."); !docPathExists(p) {
					t.Errorf("%s: %s names %s, which does not exist", doc, span, p)
				}
			}
		}
		for _, name := range docBenchmark.FindAllString(string(text), -1) {
			if !slices.ContainsFunc(benchmarks, func(b string) bool { return strings.HasPrefix(b, name) }) {
				t.Errorf("%s: no benchmark function matches %s", doc, name)
			}
		}
	}
}

func docPathExists(p string) bool {
	if strings.Contains(p, "*") {
		matches, _ := filepath.Glob(p)
		return len(matches) > 0
	}
	if _, err := os.Stat(p); err == nil {
		return true
	}
	// internal/signal.Receiver → internal/signal
	dir, last := filepath.Split(p)
	if i := strings.Index(last, "."); i > 0 {
		_, err := os.Stat(dir + last[:i])
		return err == nil
	}
	return false
}
