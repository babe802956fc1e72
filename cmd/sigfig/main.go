// Command sigfig regenerates the paper's figures and tables as versioned,
// machine-diffable artifacts, and diffs two artifact directories under
// the per-artifact tolerance and ordering policy — the repo's standing
// figure-regression gate.
//
// Usage:
//
//	sigfig list                     # show every experiment
//	sigfig all [flags]              # regenerate every artifact into -out
//	sigfig live5 ext-loss50 [flags] # regenerate specific artifacts
//	sigfig diff old/ new/           # compare two artifact directories
//
// Flags (generation):
//
//	-quick          quick sweep resolution (the committed figures/ baseline)
//	-seed N         simulation seed (default 42, the baseline's)
//	-out DIR        output directory (default figures)
//	-version V      version string recorded in artifacts (default: git
//	                describe; metadata only — diff ignores it)
//
// Every artifact is written twice: <id>.json (schema-versioned, byte-
// deterministic per seed) and <id>.md (rendered tables). Generation also
// evaluates each artifact's embedded ordering checks and fails if the
// paper's qualitative claims do not hold in the fresh data. Each
// artifact's wall time and the total go to stderr, never into an artifact.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"softstate/internal/exp"
	"softstate/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, rest := os.Args[1], os.Args[2:]
	switch cmd {
	case "list":
		listExperiments()
	case "diff":
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "usage: sigfig diff <old-dir> <new-dir>")
			os.Exit(2)
		}
		msgs, err := diffDirs(rest[0], rest[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigfig: %v\n", err)
			os.Exit(1)
		}
		if len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, m)
			}
			fmt.Fprintf(os.Stderr, "sigfig: %d violation(s)\n", len(msgs))
			os.Exit(1)
		}
		fmt.Println("sigfig: artifacts match within tolerance")
	case "help", "-h", "--help":
		usage()
	default:
		// Everything else is generation: "all" or explicit experiment IDs,
		// then flags.
		ids := []string{cmd}
		for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
			ids = append(ids, rest[0])
			rest = rest[1:]
		}
		fs := flag.NewFlagSet("sigfig", flag.ExitOnError)
		quick := fs.Bool("quick", false, "quick sweep resolution")
		seed := fs.Uint64("seed", 42, "simulation seed")
		out := fs.String("out", "figures", "output directory")
		version := fs.String("version", "", "version string recorded in artifacts (default: git describe)")
		fs.Parse(rest)

		targets, err := resolve(ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigfig: %v\n", err)
			os.Exit(2)
		}
		v := *version
		if v == "" {
			v = gitDescribe()
		}
		if err := generate(targets, exp.Options{Quick: *quick, Seed: *seed}, *out, v, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "sigfig: %v\n", err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sigfig list
  sigfig all [-quick] [-seed N] [-out dir] [-version v]
  sigfig <id> [<id>...] [flags]
  sigfig diff <old-dir> <new-dir>`)
}

func listExperiments() {
	for _, e := range exp.All() {
		kind := "analytic"
		switch {
		case e.Artifact != nil:
			kind = "live+analytic"
		case e.Simulated:
			kind = "simulated"
		}
		fmt.Printf("%-22s %-14s %s\n", e.ID, kind, e.Title)
	}
}

// resolve maps CLI experiment selectors to experiments.
func resolve(ids []string) ([]exp.Experiment, error) {
	if len(ids) == 1 && ids[0] == "all" {
		return exp.All(), nil
	}
	out := make([]exp.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := exp.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try: sigfig list)", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// gitDescribe returns the repo's current version string, or "unversioned"
// outside a git checkout. It is artifact metadata only — diff ignores it.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--tags", "--always", "--dirty").Output()
	if err != nil {
		return "unversioned"
	}
	return strings.TrimSpace(string(out))
}

// generate builds and writes every target's artifact pair (<id>.json,
// <id>.md) into outDir, evaluating each artifact's embedded ordering
// checks along the way. It fails on the first build, check, or write
// error. A non-nil log gets one line per artifact; a non-nil timing gets
// each artifact's wall time and the total.
func generate(targets []exp.Experiment, o exp.Options, outDir, version string, log, timing io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	begin := time.Now()
	for _, e := range targets {
		start := time.Now()
		a, err := exp.BuildArtifact(e, o)
		if err != nil {
			return err
		}
		a.Version = version
		if msgs := report.CheckOrderings(a); len(msgs) > 0 {
			return fmt.Errorf("%s: generated data violates its own ordering checks:\n  %s",
				e.ID, strings.Join(msgs, "\n  "))
		}
		var buf bytes.Buffer
		if err := report.EncodeArtifact(&buf, a); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, e.ID+".json"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		buf.Reset()
		if err := report.WriteArtifactMarkdown(&buf, a); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, e.ID+".md"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		if log != nil {
			frames := make([]string, 0, len(a.Frames))
			for _, f := range a.Frames {
				frames = append(frames, f.Name)
			}
			fmt.Fprintf(log, "%-22s %s [%s]\n", e.ID, a.Mode, strings.Join(frames, "+"))
		}
		if timing != nil {
			fmt.Fprintf(timing, "%-22s %8.3f s\n", e.ID, time.Since(start).Seconds())
		}
	}
	if timing != nil {
		fmt.Fprintf(timing, "%-22s %8.3f s\n", "total", time.Since(begin).Seconds())
	}
	return nil
}

// diffDirs compares every artifact in oldDir against its regenerated
// counterpart in newDir under the new artifact's embedded checks, and
// reports artifacts present on only one side. The returned messages are
// the violations; an error means the comparison itself could not run.
func diffDirs(oldDir, newDir string) ([]string, error) {
	oldSet, err := artifactSet(oldDir)
	if err != nil {
		return nil, err
	}
	newSet, err := artifactSet(newDir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		names = append(names, name)
	}
	sort.Strings(names)
	var msgs []string
	for _, name := range names {
		na, ok := newSet[name]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: missing from %s", name, newDir))
			continue
		}
		msgs = append(msgs, report.DiffArtifacts(oldSet[name], na)...)
	}
	extras := make([]string, 0)
	for name := range newSet {
		if _, ok := oldSet[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		msgs = append(msgs, fmt.Sprintf("%s: not in baseline %s — regenerate the baseline to adopt it", name, oldDir))
	}
	return msgs, nil
}

// artifactSet loads every *.json artifact in dir, keyed by artifact ID.
func artifactSet(dir string) (map[string]*report.Artifact, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no artifacts (*.json) in %s", dir)
	}
	out := make(map[string]*report.Artifact, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		a, derr := report.DecodeArtifact(f)
		f.Close()
		if derr != nil {
			return nil, fmt.Errorf("%s: %w", p, derr)
		}
		out[a.ID] = a
	}
	return out, nil
}
