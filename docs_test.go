package softstate_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
	docTest      = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	testFunc     = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// A metric series name in a doc (softstate_transport_ and
	// softstate_transport_* are prefixes) and in a Go string literal.
	docSeries = regexp.MustCompile(`\bsoftstate_\w*\*?`)
	goSeries  = regexp.MustCompile(`"(softstate_\w+)`)
	// A CHANGES.md entry is one line, "PR n…"; from changesCapFrom on it is
	// at most changesCap bytes: what / deleted / fixed / tests / medians.
	changesEntry = regexp.MustCompile(`^PR (\d+)\b`)
	// One word of a workflow command line: quoted, or bare.
	shellWord = regexp.MustCompile(`'[^']*'|"[^"]*"|[^\s'"]+`)
)

const changesCapFrom, changesCap = 11, 2560

// TestDocsNameOnlyWhatExists keeps README.md and DESIGN.md from describing
// a tree that is gone: every backticked repo path must exist (a
// pkg.Symbol suffix is read as its package directory, a * as a glob),
// every Benchmark… identifier and every backticked Test… or Fuzz… one must
// be a prefix of some such function in a _test.go file, the way -bench and
// -run would match it, and every backticked softstate_… series name must be
// (or, ending in _ or *, begin) a string literal under internal/ or cmd/.
// It also holds new CHANGES.md entries to their size.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	var funcs, series []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		test := strings.HasSuffix(path, "_test.go")
		metrics := strings.HasSuffix(path, ".go") && (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/"))
		if !test && !metrics {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if test {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				funcs = append(funcs, string(m[1]))
			}
		}
		if metrics {
			for _, m := range goSeries.FindAllSubmatch(src, -1) {
				series = append(series, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hasFunc := func(name string) bool {
		return slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) })
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllString(string(text), -1) {
			inner := strings.Trim(span, "`")
			for _, m := range docPath.FindAllStringSubmatch(inner, -1) {
				if p := strings.TrimRight(m[1], "."); !docPathExists(p) {
					t.Errorf("%s: %s names %s, which does not exist", doc, span, p)
				}
			}
			for _, name := range docTest.FindAllString(inner, -1) {
				if !hasFunc(name) {
					t.Errorf("%s: %s names %s, which no test or fuzz function matches", doc, span, name)
				}
			}
			for _, name := range docSeries.FindAllString(inner, -1) {
				match := func(s string) bool { return s == name }
				if prefix := strings.TrimSuffix(name, "*"); prefix != name || strings.HasSuffix(name, "_") {
					match = func(s string) bool { return strings.HasPrefix(s, prefix) }
				}
				if !slices.ContainsFunc(series, match) {
					t.Errorf("%s: %s names the series %s, which no string literal under internal/ or cmd/ matches", doc, span, name)
				}
			}
		}
		for _, name := range docBenchmark.FindAllString(string(text), -1) {
			if !hasFunc(name) {
				t.Errorf("%s: no benchmark function matches %s", doc, name)
			}
		}
	}

	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(changes), "\n") {
		m := changesEntry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr >= changesCapFrom && len(line) > changesCap {
			t.Errorf("CHANGES.md: the entry for PR %d is %d bytes, over the %d an entry gets; run lists go in the PR", pr, len(line), changesCap)
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

// TestWorkflowPatternsMatch keeps .github/workflows/ci.yml from naming
// tests that are gone: a `go test -run` whose pattern matches nothing
// passes with "no tests to run". Every |-alternative of every -run, -bench
// and -fuzz pattern must match a function of that kind in each package the
// command runs against (-run=XXX, the match-nothing idiom, aside).
func TestWorkflowPatternsMatch(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		var pkgs []string
		patterns := map[string]string{} // function kind → pattern
		words := shellWord.FindAllString(line[i:], -1)
		for j := 0; j < len(words); j++ {
			w := strings.Trim(words[j], `'"`)
			flag, pattern, joined := strings.Cut(w, "=")
			switch {
			case strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			case kinds[flag] == "":
			case joined:
				patterns[kinds[flag]] = strings.Trim(pattern, `'"`)
			case j+1 < len(words):
				j++
				patterns[kinds[flag]] = strings.Trim(words[j], `'"`)
			}
		}
		for kind, pattern := range patterns {
			if pattern == "XXX" {
				continue
			}
			for _, pkg := range pkgs {
				names := testFuncsIn(t, pkg, kind)
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml: %q in %q: %v", alt, strings.TrimSpace(line), err)
					} else if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("ci.yml: %q matches no %s function in %s (%s)", alt, kind, pkg, strings.TrimSpace(line))
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test patterns in ci.yml: the parser no longer reads it")
	}
}

// testFuncsIn lists the functions of one kind (Test, Benchmark, Fuzz)
// declared in a package directory's _test.go files.
func testFuncsIn(t *testing.T, dir, kind string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Errorf("ci.yml: no test files in %s (%v)", dir, err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if name := string(m[1]); strings.HasPrefix(name, kind) {
				names = append(names, name)
			}
		}
	}
	return names
}
