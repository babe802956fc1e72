// Package exp regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies and extensions listed in
// DESIGN.md. Each experiment is a named generator producing the series
// the paper plots, either as one analytic report.Table or as a full
// report.Artifact; cmd/sigfig renders this registry into figures/.
package exp

import (
	"fmt"
	"math"
	"sort"

	"softstate/internal/report"
)

// Options tune experiment execution.
type Options struct {
	// Quick trades sweep resolution and simulation sessions for speed;
	// used by tests and the default benchmark run.
	Quick bool
	// Seed drives all simulation-backed experiments.
	Seed uint64
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the index key, e.g. "fig4a" or "table1".
	ID string
	// Title names the paper artifact.
	Title string
	// Description summarizes what the artifact shows and what to expect.
	Description string
	// Simulated marks experiments that run the event simulator (slower).
	Simulated bool
	// Exactly one of Run and Artifact is set. Run produces a single
	// analytic table, which BuildArtifact wraps as the artifact's one
	// analytic frame.
	Run func(Options) (*report.Table, error)
	// Artifact produces the experiment's full versioned artifact:
	// multiple frames (analytic beside live), recorded deltas, telemetry
	// snapshots, and an embedded tolerance/ordering policy.
	Artifact func(Options) (*report.Artifact, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every experiment, ordered by ID group (paper order).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey keeps table1 first, figures in numeric order, ablations last.
func orderKey(id string) string {
	switch {
	case id == "table1":
		return "0"
	case len(id) > 3 && id[:3] == "fig":
		num := id[3:]
		// Zero-pad the numeric prefix so fig4a < fig10a.
		i := 0
		for i < len(num) && num[i] >= '0' && num[i] <= '9' {
			i++
		}
		return fmt.Sprintf("1%03s%s", num[:i], num[i:])
	default:
		return "2" + id
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// logspace returns n log-spaced values over [lo, hi].
func logspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// linspace returns n evenly spaced values over [lo, hi].
func linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// points picks a sweep resolution based on Quick.
func points(o Options, quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}
