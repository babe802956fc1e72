// Package telemetry is the observability layer of the signaling runtime:
// a metrics registry of typed, atomic instruments (counters, gauges,
// log-bucketed latency histograms), a per-key lifecycle tracer, and the
// live paper-metric collectors (inconsistency ratio, datagrams/key/s)
// that turn the source paper's figure axes into continuously-computed
// properties of a running node.
//
// Design constraints, in order:
//
//  1. Zero-alloc, zero-lock hot path. Counter.Add and Histogram.Observe
//     are single atomic ops on pre-registered instruments; the registry
//     lock is taken only at registration and scrape time. Instruments are
//     value-embeddable (a struct field, not a heap object behind an
//     interface), so internal/signal's per-wire-type counters cost
//     exactly what its old bare atomic.Int64 array cost.
//  2. Optional everywhere. Every exported method is safe on a nil
//     receiver: a nil *Registry hands out working unregistered
//     instruments and a nil *Tracer records nothing, so the protocol
//     layers thread telemetry without branching on configuration.
//  3. Deterministic under the virtual clock. Scrapes sort, trace stamps
//     come from clock.Clock, and nothing reads the wall clock behind the
//     caller's back — a virtual-time run produces byte-identical
//     telemetry on every replay.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimension values (protocol variant, endpoint role,
// shard index) to an instrument.
type Labels map[string]string

// Opts names an instrument at registration.
type Opts struct {
	// Name is the metric name (Prometheus conventions: snake_case,
	// _total suffix on counters, _seconds unit suffix on histograms).
	Name string
	// Help is the one-line instrument description.
	Help string
	// Labels are the instrument's constant label values.
	Labels Labels
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, registered or not, and all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// all methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates the registry's instrument slots.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	labels []labelPair // sorted by key
	id     string      // name + rendered labels, the registry identity
	kind   metricKind

	c *Counter
	f func() float64
	h *Histogram
}

type labelPair struct{ k, v string }

// Registry holds named instruments for scraping. All methods are safe for
// concurrent use and safe on a nil receiver (instruments are handed out
// unregistered, registration is a no-op), so components can be written
// against a Registry unconditionally.
type Registry struct {
	mu   sync.Mutex
	ms   []*metric
	byID map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*metric)}
}

// RegisterCounter registers an existing counter — the path for counters
// embedded by value in another struct (internal/signal's per-wire-type
// array), which stay exactly as cheap as bare atomics.
func (r *Registry) RegisterCounter(o Opts, c *Counter) {
	r.register(&metric{kind: kindCounter, c: c}, o)
}

// GaugeFunc registers a gauge computed at scrape time — the zero-cost way
// to expose a value the component already maintains (table occupancy,
// live-key count, wheel depth). fn must be safe to call from any
// goroutine.
func (r *Registry) GaugeFunc(o Opts, fn func() float64) {
	if fn == nil {
		return
	}
	r.register(&metric{kind: kindGaugeFunc, f: fn}, o)
}

// NewHistogram creates and registers a log-bucketed duration histogram.
func (r *Registry) NewHistogram(o Opts) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(o, h)
	return h
}

// RegisterHistogram registers an existing histogram.
func (r *Registry) RegisterHistogram(o Opts, h *Histogram) {
	r.register(&metric{kind: kindHistogram, h: h}, o)
}

// register files m under o's identity. A second registration with an
// identical (name, labels) identity gains an automatic instance label so
// multi-endpoint processes (a relay's receiver and sender side, a chain
// of nodes sharing one registry) never collide or silently merge.
func (r *Registry) register(m *metric, o Opts) {
	if r == nil {
		return
	}
	m.name = o.Name
	m.help = o.Help
	m.labels = sortLabels(o.Labels)
	m.id = renderID(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.byID[m.id]; taken {
		for n := 2; ; n++ {
			labels := append(append([]labelPair(nil), m.labels...),
				labelPair{k: "instance", v: strconv.Itoa(n)})
			sort.Slice(labels, func(i, j int) bool { return labels[i].k < labels[j].k })
			id := renderID(m.name, labels)
			if _, taken := r.byID[id]; !taken {
				m.labels, m.id = labels, id
				break
			}
		}
	}
	r.byID[m.id] = m
	r.ms = append(r.ms, m)
}

func sortLabels(ls Labels) []labelPair {
	out := make([]labelPair, 0, len(ls))
	for k, v := range ls {
		out = append(out, labelPair{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// renderID renders name{k="v",...} — the Prometheus series identity.
func renderID(name string, labels []labelPair) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, lp := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(lp.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(lp.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Sample is one instrument's scrape-time snapshot.
type Sample struct {
	// Name is the metric name; ID is the full series identity including
	// labels.
	Name, ID string
	Help     string
	// Kind is "counter", "gauge", or "histogram".
	Kind string
	// Value carries counter and gauge readings.
	Value float64
	// Hist carries histogram readings (nil otherwise).
	Hist *HistogramSnapshot
}

// Gather snapshots every instrument, sorted by series identity — the
// deterministic scrape order every exporter shares.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, len(r.ms))
	copy(ms, r.ms)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].id < ms[j].id
	})
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, ID: m.id, Help: m.help}
		switch m.kind {
		case kindCounter:
			s.Kind, s.Value = "counter", float64(m.c.Value())
		case kindGaugeFunc:
			s.Kind, s.Value = "gauge", m.f()
		case kindHistogram:
			snap := m.h.Snapshot()
			s.Kind, s.Hist = "histogram", &snap
		}
		out = append(out, s)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (durations in seconds, histograms as cumulative le buckets).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastName := ""
	for _, s := range r.Gather() {
		if s.Name != lastName {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, s.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
			lastName = s.Name
		}
		if s.Hist == nil {
			fmt.Fprintf(&b, "%s %s\n", s.ID, formatFloat(s.Value))
			continue
		}
		bucketID := renameSeries(s.ID, s.Name, s.Name+"_bucket")
		cum := int64(0)
		for _, bk := range s.Hist.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s %d\n",
				withLabel(s.Name+"_bucket", bucketID, "le", formatFloat(float64(bk.UpperNs)/1e9)), cum)
		}
		// A scrape racing Observe can see a bucket increment before the
		// matching count increment; clamp +Inf so the series stays
		// cumulative-monotonic (a Prometheus format requirement).
		inf := s.Hist.Count
		if cum > inf {
			inf = cum
		}
		fmt.Fprintf(&b, "%s %d\n", withLabel(s.Name+"_bucket", bucketID, "le", "+Inf"), inf)
		fmt.Fprintf(&b, "%s %s\n", renameSeries(s.ID, s.Name, s.Name+"_sum"),
			formatFloat(float64(s.Hist.SumNs)/1e9))
		fmt.Fprintf(&b, "%s %d\n", renameSeries(s.ID, s.Name, s.Name+"_count"), s.Hist.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLabel injects one more label into a rendered series identity.
func withLabel(name, id, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if id == name { // no labels yet
		return name + "{" + extra + "}"
	}
	return strings.TrimSuffix(id, "}") + "," + extra + "}"
}

// renameSeries swaps the metric name inside a rendered identity (for the
// _bucket/_count/_sum suffixed histogram series).
func renameSeries(id, name, newName string) string {
	return newName + strings.TrimPrefix(id, name)
}

// WriteJSON renders the registry as one flat JSON object keyed by series
// identity — the expvar-style view. Histograms expose count, sum, and the
// p50/p90/p99 quantile estimates.
func (r *Registry) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{")
	for i, s := range r.Gather() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%q:", s.ID)
		if s.Hist == nil {
			b.WriteString(formatFloat(s.Value))
			continue
		}
		fmt.Fprintf(&b, `{"count":%d,"sum_ns":%d,"p50_ns":%d,"p90_ns":%d,"p99_ns":%d}`,
			s.Hist.Count, s.Hist.SumNs,
			s.Hist.Quantile(0.50), s.Hist.Quantile(0.90), s.Hist.Quantile(0.99))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders floats the way Prometheus expects: integral values
// without an exponent, everything else in shortest-roundtrip form.
func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
