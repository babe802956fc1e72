package softstate_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	// A backticked span that is all one Go name, called or not: Name,
	// Type.Name, pkg.Name or pkg.Type.Name. A name with an underscore is a
	// C constant (SO_RXQ_OVFL) or a benchmark metric (signal.install_ns).
	docIdent = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*){0,2}(?:\(\))?$`)
)

// docIdentAllowed are the capitalized names the docs use that are no Go
// declaration: the paper's inconsistency metric.
var docIdentAllowed = []string{"I"}

const changesCapFrom, changesCap = 11, 2560

// designCeiling is the most bytes DESIGN.md may hold. A change that grows
// it past this raises the ceiling and says why in its CHANGES entry.
const designCeiling = 101_803

// TestDocsNameOnlyWhatExists keeps README.md and DESIGN.md from describing
// a tree that is gone: every backticked repo path must exist (a
// pkg.Symbol suffix is read as its package directory, a * as a glob),
// every Benchmark… identifier and every backticked Test… or Fuzz… one must
// be a prefix of some such function in a _test.go file, the way -bench and
// -run would match it, every backticked softstate_… series name must be
// (or, ending in _ or *, begin) a string literal under internal/ or cmd/,
// and every backticked Go name must be declared in a non-test Go file (see
// goDecls.names). It also holds DESIGN.md to its byte ceiling and new
// CHANGES.md entries to their size.
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
	decls := parseDecls(t)

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if doc == "DESIGN.md" && len(text) > designCeiling {
			t.Errorf("DESIGN.md is %d bytes, over its %d-byte ceiling", len(text), designCeiling)
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
			if docIdent.MatchString(inner) && !docTest.MatchString(inner) && !docBenchmark.MatchString(inner) &&
				!slices.Contains(docIdentAllowed, inner) && !docPathExists(inner) && !decls.names(strings.TrimSuffix(inner, "()")) {
				t.Errorf("%s: %s names a Go identifier no non-test Go file declares", doc, span)
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

// goDecls is what the repo's non-test Go files declare.
type goDecls struct {
	all     map[string]bool            // every name: type, func, method, const, var, field
	pkgs    map[string]map[string]bool // package name → the names declared in it
	members map[string]map[string]bool // type name → its fields and methods
}

// names reports whether the Go name a doc span holds is declared. The
// forms checked are a capitalized or camelCase Name, declared anywhere;
// pkg.Name, where pkg is a repo package, declared in it (a method or field
// too: statetable.UpdateBytes); and pkg.Type.Name and Type.Name, where
// Type is capitalized, a field or method of a repo type of that name. A
// span in any other form (a lower-case word, a
// standard-library name such as net.UDPConn, a variable's field) is not a
// name this check can judge, and passes.
func (d goDecls) names(span string) bool {
	parts := strings.Split(span, ".")
	if pkg, ok := d.pkgs[parts[0]]; ok && len(parts) > 1 {
		if !pkg[parts[1]] {
			return false
		}
		parts = parts[1:]
	} else if c := parts[0][0]; c < 'A' || c > 'Z' {
		return len(parts) > 1 || strings.ToLower(span) == span || d.all[span]
	}
	switch len(parts) {
	case 1:
		return d.all[parts[0]]
	case 2:
		return d.members[parts[0]][parts[1]]
	}
	return false
}

// repoFile is one non-test Go file of the repo, parsed.
type repoFile struct {
	path string
	ast  *ast.File
}

// parseRepo parses every non-test Go file in the repo, benchmark/ and
// examples/ included, whatever its build constraints.
func parseRepo(t *testing.T) (*token.FileSet, []repoFile) {
	fset := token.NewFileSet()
	var files []repoFile
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, repoFile{path, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// parseDecls collects goDecls from every non-test Go file in the repo.
func parseDecls(t *testing.T) goDecls {
	d := goDecls{all: map[string]bool{}, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	_, files := parseRepo(t)
	for _, rf := range files {
		f := rf.ast
		top := d.pkgs[f.Name.Name]
		if top == nil {
			top = map[string]bool{}
			d.pkgs[f.Name.Name] = top
		}
		declare := func(name string) {
			d.all[name] = true
			top[name] = true
		}
		member := func(typ, name string) {
			if d.members[typ] == nil {
				d.members[typ] = map[string]bool{}
			}
			d.members[typ][name] = true
			declare(name)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name.Name)
				} else if typ := recvType(decl.Recv.List[0].Type); typ != "" {
					member(typ, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(n.Name)
						}
					case *ast.TypeSpec:
						declare(spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, n := range field.Names {
								member(spec.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	delete(d.pkgs, "main") // a command is no qualifier
	return d
}

// recvType is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch ix := x.(type) {
	case *ast.IndexExpr:
		x = ix.X
	case *ast.IndexListExpr:
		x = ix.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// exportAllowed are the packages (by import path) whose exported names
// need no caller in the repo, each with its reason. Their unexported
// names are checked like any other.
var exportAllowed = map[string]string{
	"softstate": "the module's importable API: its callers are outside the repo",
}

// scanSkipped are the packages (by import path) whose names the scan does
// not check at all, each with its reason.
var scanSkipped = map[string]string{
	"softstate/benchmark": "a separate module whose files the scan reads only as callers",
}

// fuzzEngine are unexported names, as the scan prints them, that only
// tests call and that still stay out of _test.go files: the sequence
// fuzzer's entry points, which FuzzSession and FuzzDifferential drive.
// Moved into a test file, the engine would leave the methods it calls
// (signal.Receiver.SeqSnapshot and GetFrom, wire.Message.MarshalBinary)
// with no non-test caller, and a test of package chaos cannot reach them
// in another package's test files.
var fuzzEngine = []string{"internal/chaos.decodeTrace", "internal/chaos.runTrace", "internal/chaos.divergenceViolations"}

// TestEveryExportHasACaller fails on a name, exported or not, that no
// non-test Go file uses: a top-level function, type, variable or constant
// (main and _ aside), a method, an interface method, or a struct field. It
// type-checks every package
// parseRepo reads that builds here (benchmark/ and examples/ too, so they
// count as callers) and counts a name as used when go/types resolves some
// identifier outside a _test.go file to it. A type naming itself in its
// own method receivers is no use of it. A method needs no caller when its
// type satisfies an interface that declares it (error, fmt.Stringer,
// net.PacketConn, clock.Timer…): it is called through that interface. A
// field with a struct tag is read by reflection, an embedded field is
// its type, and those pass too.
func TestEveryExportHasACaller(t *testing.T) {
	fset, files := parseRepo(t)
	byPath := map[string][]*ast.File{}
	self := map[*ast.Ident]bool{} // receiver type names
	for _, rf := range files {
		dir, base := filepath.Split(rf.path)
		if ok, err := build.Default.MatchFile(filepath.Clean("./"+dir), base); err != nil || !ok {
			continue
		}
		path := strings.TrimSuffix("softstate/"+filepath.ToSlash(dir), "/")
		byPath[path] = append(byPath[path], rf.ast)
		for _, decl := range rf.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						self[id] = true
					}
					return true
				})
			}
		}
	}
	imp := &repoImporter{std: importer.Default(), fset: fset, files: byPath, pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	for path := range byPath {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range imp.info.Uses {
		if !self[id] {
			used[origin(obj)] = true
		}
	}
	// An unkeyed composite literal sets every field of its struct.
	for _, rf := range files {
		ast.Inspect(rf.ast, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if tv, ok := imp.info.Types[lit]; ok {
				if st, ok := tv.Type.Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						used[origin(st.Field(i))] = true
					}
				}
			}
			return true
		})
	}
	// Every interface that can call a method: those the repo's packages and
	// everything they import declare, error, and the unnamed ones in use.
	ifaces := map[string][]*types.Interface{} // method name → interfaces declaring it
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range imp.pkgs {
		visit(p)
	}
	for _, tv := range imp.info.Types {
		if _, named := tv.Type.(*types.Named); !named {
			addIface(tv.Type)
		}
	}
	viaInterface := func(named *types.Named, method string) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		return slices.ContainsFunc(ifaces[method], func(it *types.Interface) bool {
			return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
		})
	}

	var unused []string
	for path, p := range imp.pkgs {
		if _, ok := scanSkipped[path]; ok {
			continue
		}
		_, exportsFree := exportAllowed[path]
		flag := func(obj types.Object, name string) {
			if !used[obj] && obj.Name() != "_" && !(exportsFree && obj.Exported()) && !slices.Contains(fuzzEngine, name) {
				unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(obj.Pos()), name))
			}
		}
		qual := strings.TrimPrefix(path, "softstate/")
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if name != "main" {
				flag(obj, qual+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if m := named.Method(i); !viaInterface(named, m.Name()) {
					flag(m, qual+"."+name+"."+m.Name())
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := range u.NumFields() {
					if f := u.Field(i); !f.Embedded() && u.Tag(i) == "" {
						flag(f, qual+"."+name+"."+f.Name())
					}
				}
			case *types.Interface:
				for i := range u.NumExplicitMethods() {
					m := u.ExplicitMethod(i)
					flag(m, qual+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside _test.go files: delete it, unexport it, or move it into the test that uses it", u)
	}
}

// repoImporter type-checks the repo's packages from source, each once, and
// leaves the standard library to std; every use lands in one types.Info.
type repoImporter struct {
	std   types.Importer
	fset  *token.FileSet
	files map[string][]*ast.File // import path → its files that build here
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	if p, ok := r.pkgs[path]; ok {
		return p, nil
	}
	files, ok := r.files[path]
	if !ok {
		return r.std.Import(path)
	}
	conf := types.Config{Importer: r}
	p, err := conf.Check(path, r.fset, files, r.info)
	r.pkgs[path] = p
	return p, err
}

// origin is the declared object behind an instantiated generic one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
