package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval recorded at a layer boundary by the
// benchmark's own code: the driver around its calls into the program, or
// a conn wrapper around the calls the program makes into its link.
//
// A span holds no pointers: hold-hs records a million of them per window,
// and buffers the collector had to scan (and guard with write barriers)
// cost more than the work they measured. Kind and Lane index the
// recorder's name tables.
type span struct {
	ID     uint32 // 1-based; 0 means "no span"
	Parent uint32 // the enclosing span, 0 for a root
	Trace  uint64 // shared by the spans of one window, sweep or sampled install
	Start  int64  // ns since the recorder was created
	End    int64
	N      int64  // datagrams (conn spans) or keys (driver spans) covered
	Kind   uint16 // which (layer, name)
	Lane   uint16 // the conn or driver that recorded it
}

// aggKey is one kind of span, and one row of the recorder's running
// totals.
type aggKey struct{ Layer, Name string }

// aggregate sums every span of one (layer, name), including the ones the
// recorder no longer holds raw.
type aggregate struct {
	Count  int64
	N      int64
	DurNs  int64
	SelfNs int64 // duration minus the part child spans cover
}

const (
	// maxKeptSpans bounds the raw spans held for trace.json; later spans
	// are still folded into the totals.
	maxKeptSpans = 1 << 17
	// traceEvery is the share of windows the traced pass records: every
	// fourth, in full. Recording whole windows keeps the self-time
	// arithmetic exact (no child of a recorded span is missing), the
	// unrecorded windows in between are the reference the overhead is
	// measured against, and on hold-hs — four per-datagram spans per key
	// and window — it is what keeps the traced pass within a tenth of the
	// untraced one.
	traceEvery = 4
)

// spanBuf is one lane's spans since the last fold. Each wrapped conn has
// its own, so recording a span touches no memory other lanes write.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// recorder keeps the traced pass's spans in memory. It is off in the
// untraced pass, which then pays one atomic load per boundary.
type recorder struct {
	t0 time.Time
	// armed is set for the traced pass; the drivers then switch enabled on
	// for every traceEvery-th window (driver goroutine only).
	armed        bool
	armedWindows int
	enabled      atomic.Bool
	// root is the open driver span that conn spans nest under (0 when
	// none is open); rootTrace is the trace id the driver last set, which
	// outlives root so that work a sweep caused on other goroutines still
	// shares its id. nestAll says receiver-side spans nest under root too:
	// true under the virtual clock, where the gate serializes all work
	// inside Run; false on real sockets, where only the sender's writes
	// run inside the driver's call.
	root      atomic.Uint32
	rootTrace atomic.Uint64
	nestAll   bool

	driver spanBuf // the driver's own spans and the trigger markers

	mu      sync.Mutex
	kinds   []aggKey // span.Kind indexes this
	names   []string // span.Lane indexes this
	lanes   []*spanBuf
	nextID  uint32
	open    []span // gathered from the lanes, not yet folded
	kept    []span
	dropped int64 // folded into totals but not kept raw
	totals  map[aggKey]*aggregate
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), totals: make(map[aggKey]*aggregate), nextID: 1 << 24}
	r.lanes = []*spanBuf{&r.driver}
	r.names = []string{"driver"}
	return r
}

// lane registers a new span buffer under name and returns it with the id
// its spans carry.
func (r *recorder) lane(name string) (*spanBuf, uint16) {
	b := &spanBuf{}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes = append(r.lanes, b)
	r.names = append(r.names, name)
	return b, uint16(len(r.names) - 1)
}

// kind interns one (layer, name) and returns the id its spans carry.
func (r *recorder) kind(layer, name string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := aggKey{layer, name}
	for i := range r.kinds {
		if r.kinds[i] == k {
			return uint16(i)
		}
	}
	r.kinds = append(r.kinds, k)
	return uint16(len(r.kinds) - 1)
}

func (r *recorder) on() bool   { return r.enabled.Load() }
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// sample is called by the driver at the start of every window: it
// switches recording on for the first armed window and every
// traceEvery-th after it, off otherwise, and reports which.
func (r *recorder) sample() bool {
	traced := false
	if r.armed {
		traced = r.armedWindows%traceEvery == 0
		r.armedWindows++
	}
	r.enabled.Store(traced)
	return traced
}

// reset forgets every span recorded so far; lanes and kinds stay.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gather()
	r.open, r.kept, r.dropped = r.open[:0], r.kept[:0], 0
	r.totals = make(map[aggKey]*aggregate)
	r.armedWindows = 0
}

// child records a conn-level span in the conn's own lane; it nests under
// the open driver span when the work ran inside that span's call (see
// nestAll).
func (r *recorder) child(b *spanBuf, sender bool, kind, lane uint16, start, end, n int64) {
	var parent uint32
	if r.nestAll || sender {
		parent = r.root.Load()
	}
	b.add(span{Parent: parent, Trace: r.rootTrace.Load(), Kind: kind, Lane: lane, Start: start, End: end, N: n})
}

// begin opens a driver span and makes it the root conn spans nest under.
// Driver span ids count up from 1; ids of other spans are assigned when
// they are gathered, from a range far above.
func (r *recorder) begin(trace uint64) (id uint32, start int64) {
	id = uint32(trace)
	r.root.Store(id)
	r.rootTrace.Store(trace)
	return id, r.now()
}

// end closes a span opened with begin.
func (r *recorder) end(id uint32, kind uint16, start, n int64) {
	end := r.now()
	r.root.Store(0)
	r.driver.add(span{ID: id, Trace: r.rootTrace.Load(), Kind: kind, Start: start, End: end, N: n})
}

// gather moves every lane's spans into open and gives the ones without an
// id theirs; callers hold r.mu.
func (r *recorder) gather() {
	for _, b := range r.lanes {
		b.mu.Lock()
		r.open = append(r.open, b.spans...)
		b.spans = b.spans[:0]
		b.mu.Unlock()
	}
	for i := range r.open {
		if r.open[i].ID == 0 {
			r.nextID++
			r.open[i].ID = r.nextID
		}
	}
}

// wrapChildren inserts a synthetic span between root and those of its
// children that match: it covers [start, last matching child's end],
// becomes their parent, and is itself a child of root. The virtual
// workloads use it for the summary sweep, which runs as a clock callback
// inside Run where the driver cannot put a span around it: everything
// between Run's start and the sender conn's last write is the sweep.
func (r *recorder) wrapChildren(root uint32, kind, lane uint16, start, n int64, match func(*span) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gather()
	r.nextID++
	id, end, found := r.nextID, start, false
	for i := range r.open {
		s := &r.open[i]
		if s.Parent == root && match(s) {
			s.Parent = id
			if s.End > end {
				end = s.End
			}
			found = true
		}
	}
	if found {
		r.open = append(r.open, span{ID: id, Parent: root, Trace: r.rootTrace.Load(),
			Kind: kind, Lane: lane, Start: start, End: end, N: n})
	}
}

// fold computes self times for the spans recorded since the last fold,
// adds them to the totals, and keeps them raw while there is room. The
// driver calls it between windows, when no parent span is still open.
func (r *recorder) fold() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gather()
	self := selfTimes(r.open)
	for i := range r.open {
		s := &r.open[i]
		k := r.kinds[s.Kind]
		a := r.totals[k]
		if a == nil {
			a = &aggregate{}
			r.totals[k] = a
		}
		a.Count++
		a.N += s.N
		a.DurNs += s.End - s.Start
		a.SelfNs += self[i]
	}
	room := maxKeptSpans - len(r.kept)
	if room > len(r.open) {
		room = len(r.open)
	}
	r.kept = append(r.kept, r.open[:room]...)
	r.dropped += int64(len(r.open) - room)
	r.open = r.open[:0]
}

// total returns the running totals of one (layer, name); zero if none.
func (r *recorder) total(layer, name string) aggregate {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.totals[aggKey{layer, name}]; a != nil {
		return *a
	}
	return aggregate{}
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (receiver lanes run in parallel on real sockets): the covered part is
// the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	pos := make(map[uint32]int)
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
		if spans[i].ID != 0 {
			pos[spans[i].ID] = i
		}
	}
	children := make(map[int][]int)
	for i := range spans {
		if spans[i].Parent == 0 {
			continue
		}
		if p, ok := pos[spans[i].Parent]; ok {
			children[p] = append(children[p], i)
		}
	}
	for p, kids := range children {
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		hi := spans[p].End
		var covered int64
		edge := spans[p].Start // everything before edge is already counted
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < edge {
				s = edge
			}
			if e > hi {
				e = hi
			}
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[p] -= covered
	}
	return self
}

// traceEvent is one complete event of the Chrome trace-event format, so
// trace.json opens in chrome://tracing and Perfetto as well as in jq.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"` // the layer
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"` // one per lane
	Args map[string]any `json:"args"`
}

// writeTrace writes the kept spans, the per-(layer, name) totals and the
// count of spans that were folded but not kept.
func (r *recorder) writeTrace(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]traceEvent, 0, len(r.kept))
	for _, s := range r.kept {
		k := r.kinds[s.Kind]
		events = append(events, traceEvent{
			Name: k.Name, Cat: k.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: int(s.Lane) + 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace, "lane": r.names[s.Lane], "n": s.N},
		})
	}
	totals := map[string]aggregate{}
	for k, a := range r.totals {
		totals[k.Layer+"/"+k.Name] = *a
	}
	out := map[string]any{
		"workload":     workload,
		"traceEvents":  events,
		"totals":       totals,
		"spansDropped": r.dropped,
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
