package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ArtifactSchema is the current figure-artifact schema version. Bump it
// when the JSON layout changes incompatibly; sigfig diff refuses to
// compare artifacts across schema versions.
const ArtifactSchema = 1

// Artifact is one regenerable paper figure or table as a versioned,
// machine-diffable record: the experiment's identity and parameters, one
// or more data frames (the analytic model's output, the live stack's
// measurement, or both), the recorded live-vs-analytic deltas, a curated
// telemetry snapshot from the live runs, and the tolerance/ordering
// policy that sigfig diff enforces against it. Artifacts are
// deterministic: the same (id, mode, seed, code) produces byte-identical
// JSON, which is what makes the committed figures/ directory a standing
// regression baseline.
type Artifact struct {
	Schema      int    `json:"schema"`
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
	// Version records the code state (git describe) the artifact was
	// generated from. It is metadata: sigfig diff ignores it.
	Version string `json:"version,omitempty"`
	// Mode is "quick" or "full"; Seed drives every simulation-backed frame.
	Mode string `json:"mode"`
	Seed uint64 `json:"seed"`
	// Frames are the data series, conventionally named "analytic" and
	// "live".
	Frames []Frame `json:"frames"`
	// Deltas record the live-vs-analytic disagreement per shared point.
	// They are informational (the cross-frame agreement story), not gated:
	// diff tolerances compare old and new artifacts frame by frame.
	Deltas []Delta `json:"deltas,omitempty"`
	// Telemetry holds one curated instrument snapshot per live run,
	// keyed by run label (usually the protocol name).
	Telemetry map[string]TelemetrySnapshot `json:"telemetry,omitempty"`
	// Checks is the artifact's own regression policy: per-column
	// tolerances and the qualitative orderings that must always hold.
	Checks *Checks `json:"checks,omitempty"`
}

// Frame is one rectangular data series of an artifact.
type Frame struct {
	// Name distinguishes the frames of one artifact: "analytic" for
	// model output, "live" for wire-stack measurements.
	Name    string     `json:"name"`
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// FrameNames are the conventional frame names BuildArtifact and the
// delta computation look for.
const (
	FrameAnalytic = "analytic"
	FrameLive     = "live"
)

// NewFrame captures a table as an artifact frame. The rows are copied,
// so the table may be reused or mutated afterwards.
func NewFrame(name string, t *Table) Frame {
	f := Frame{Name: name, Title: t.Title, Columns: append([]string(nil), t.Columns...)}
	for _, r := range t.Rows() {
		f.Rows = append(f.Rows, append([]string(nil), r...))
	}
	return f
}

// Table reconstitutes the frame as a report.Table (for rendering).
func (f Frame) Table() *Table {
	t := New(f.Title, f.Columns...)
	for _, r := range f.Rows {
		t.AddRow(r...)
	}
	return t
}

// columnIndex returns the index of the named column, or -1.
func (f Frame) columnIndex(name string) int {
	for i, c := range f.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// TelemetrySnapshot is a flat instrument snapshot: series identity →
// value (counters and gauges verbatim, histograms as quantile/count
// entries).
type TelemetrySnapshot map[string]float64

// Delta is one recorded live-vs-analytic comparison point: the frames'
// shared column at the row whose join key (first-column cell) matches.
type Delta struct {
	// Key is the join value — the first-column cell shared by the
	// analytic and live rows (a protocol name, a loss rate, a hop count).
	Key    string  `json:"key"`
	Column string  `json:"column"`
	Live   float64 `json:"live"`
	// Analytic is the model's prediction at matched parameters.
	Analytic float64 `json:"analytic"`
	// Abs is live − analytic; Rel is Abs normalized by |analytic| (0 when
	// the analytic value is 0).
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// ComputeDeltas joins the analytic and live frames on their first column
// and records one delta per (matched row, shared numeric column). When
// columns is non-nil only those columns are recorded; otherwise every
// column shared by both frames (beyond the join column) is. Points
// present in only one frame are skipped — the frames may sweep different
// grids.
func ComputeDeltas(analytic, live Frame, columns []string) []Delta {
	if len(analytic.Columns) == 0 || len(live.Columns) == 0 {
		return nil
	}
	if columns == nil {
		for _, c := range live.Columns[1:] {
			if analytic.columnIndex(c) > 0 {
				columns = append(columns, c)
			}
		}
	}
	anaRow := make(map[string][]string, len(analytic.Rows))
	for _, r := range analytic.Rows {
		if len(r) > 0 {
			anaRow[r[0]] = r
		}
	}
	var out []Delta
	for _, lr := range live.Rows {
		if len(lr) == 0 {
			continue
		}
		ar, ok := anaRow[lr[0]]
		if !ok {
			continue
		}
		for _, col := range columns {
			li, ai := live.columnIndex(col), analytic.columnIndex(col)
			if li <= 0 || ai <= 0 || ai >= len(ar) || li >= len(lr) {
				continue
			}
			lv, lerr := strconv.ParseFloat(lr[li], 64)
			av, aerr := strconv.ParseFloat(ar[ai], 64)
			if lerr != nil || aerr != nil {
				continue
			}
			d := Delta{Key: lr[0], Column: col, Live: lv, Analytic: av, Abs: lv - av}
			if av != 0 {
				d.Rel = d.Abs / av
			}
			out = append(out, d)
		}
	}
	return out
}

// EncodeArtifact writes the artifact as indented JSON with a trailing
// newline. encoding/json sorts map keys, so the bytes are a pure
// function of the artifact value — the determinism the golden tests and
// the CI diff gate rely on.
func EncodeArtifact(w io.Writer, a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeArtifact reads one artifact from JSON.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("report: decode artifact: %w", err)
	}
	return &a, nil
}

// WriteMarkdown renders the table as a GitHub-flavored markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	esc := func(s string) string { return strings.ReplaceAll(s, "|", `\|`) }
	row := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
		return err
	}
	if err := row(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = "---"
	}
	if err := row(rule); err != nil {
		return err
	}
	for _, r := range t.Rows() {
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteArtifactMarkdown renders the whole artifact as a markdown
// document: metadata, every frame as a table, the recorded deltas, and
// the telemetry snapshots.
func WriteArtifactMarkdown(w io.Writer, a *Artifact) error {
	fmt.Fprintf(w, "# %s — %s\n\n", a.ID, a.Title)
	if a.Description != "" {
		fmt.Fprintf(w, "%s\n\n", a.Description)
	}
	fmt.Fprintf(w, "`schema %d` · mode **%s** · seed `%d`", a.Schema, a.Mode, a.Seed)
	if a.Version != "" {
		fmt.Fprintf(w, " · version `%s`", a.Version)
	}
	fmt.Fprint(w, "\n")
	for _, f := range a.Frames {
		fmt.Fprintf(w, "\n## %s frame", f.Name)
		if f.Title != "" {
			fmt.Fprintf(w, ": %s", f.Title)
		}
		fmt.Fprint(w, "\n\n")
		if err := f.Table().WriteMarkdown(w); err != nil {
			return err
		}
	}
	if len(a.Deltas) > 0 {
		fmt.Fprint(w, "\n## Live vs analytic deltas\n\n")
		t := New("", "key", "column", "live", "analytic", "abs", "rel")
		for _, d := range a.Deltas {
			t.AddRow(d.Key, d.Column,
				strconv.FormatFloat(d.Live, 'g', 6, 64),
				strconv.FormatFloat(d.Analytic, 'g', 6, 64),
				strconv.FormatFloat(d.Abs, 'g', 6, 64),
				strconv.FormatFloat(d.Rel, 'g', 6, 64))
		}
		if err := t.WriteMarkdown(w); err != nil {
			return err
		}
	}
	if len(a.Telemetry) > 0 {
		fmt.Fprint(w, "\n## Telemetry\n\n")
		labels := make([]string, 0, len(a.Telemetry))
		for k := range a.Telemetry {
			labels = append(labels, k)
		}
		sort.Strings(labels)
		for _, label := range labels {
			fmt.Fprintf(w, "**%s**\n\n", label)
			snap := a.Telemetry[label]
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t := New("", "series", "value")
			for _, k := range keys {
				t.AddRow(k, strconv.FormatFloat(snap[k], 'g', -1, 64))
			}
			if err := t.WriteMarkdown(w); err != nil {
				return err
			}
			fmt.Fprint(w, "\n")
		}
	}
	return nil
}
