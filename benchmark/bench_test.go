package main

import (
	"encoding/json"
	"net"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"softstate/internal/signal"
	"softstate/internal/transport"
)

// toySize runs every workload and replay row in well under a second.
var toySize = sizes{
	peers: 4, refreshKeys: 128, holdKeys: 64,
	churnBase: 128, churnRate: 400, churnHold: 150 * time.Millisecond,
	replayPeers: 2, replayKeys: 128, replayOps: 256,
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram holds BENCHMARK.json and the program's metric
// tables together: same workloads, same metric names, same units, and
// every name and unit inside the contract's alphabet.
func TestManifestMatchesProgram(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: manifest %v, program %v", names, want)
	}
	check := func(kind string, got []manifestMetric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: manifest has %d metrics, program %d", kind, len(got), len(defs))
		}
		seen := map[string]bool{}
		for i, g := range got {
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q unit %q: outside the contract's alphabet", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s %q declared twice", kind, g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", kind, g.Name, g.Bound)
			}
			if i < len(defs) && (g.Name != defs[i].name || g.Unit != defs[i].unit) {
				t.Errorf("%s #%d: manifest %s [%s], program %s [%s]", kind, i, g.Name, g.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s, lower], got %+v", m.EndToEnd[0])
	}
}

// TestEveryWorkloadReportsEveryMetric runs both passes of every workload
// at toy size and requires exactly the declared metrics, each once (a map
// cannot hold a name twice) and with its declared unit, correct outputs,
// and no failed operation.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	dir := t.TempDir() // the traced pass writes .bench_build/ under the working directory
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	for _, w := range workloads {
		for _, pass := range []struct {
			name string
			run  func(workloadSpec, sizes, uint64, time.Duration) (report, error)
			defs []metricDef
		}{
			{"untraced", untracedPass, endToEnd},
			{"traced", tracedPass, perLayer},
		} {
			rep, err := pass.run(w, toySize, 7, 400*time.Millisecond)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, pass.name, err)
			}
			if rep.Invalid != "" {
				// A 0.4 s region is 40 bursts: one scheduling stall of the
				// shared test machine is a tenth of them. The schema below
				// is checked all the same.
				t.Logf("%s %s: %s", w.name, pass.name, rep.Invalid)
			} else if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s %s: correct=%v failed=%d attempted=%d", w.name, pass.name, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(pass.defs) {
				t.Errorf("%s %s: %d metrics reported, %d declared", w.name, pass.name, len(rep.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				got, ok := rep.Metrics[d.name]
				if !ok {
					t.Errorf("%s %s: %s not reported", w.name, pass.name, d.name)
				} else if got.Unit != d.unit {
					t.Errorf("%s %s: %s reported in %q, declared %q", w.name, pass.name, d.name, got.Unit, d.unit)
				}
				if pass.name == "untraced" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, got.Value)
				}
			}
		}
		if _, err := os.Stat(tracePath(w.name)); err != nil {
			t.Errorf("%s: traced pass left no trace file: %v", w.name, err)
		}
	}
}

// TestSeededInputsReproduce runs scaled-down refresh-fanout and hold-hs
// twice with one seed and requires bit-identical wire counts; another seed
// must name other keys and still pass every check.
func TestSeededInputsReproduce(t *testing.T) {
	type outcome struct {
		held int64
		sent map[string]int64
		per  float64 // datagrams per key and virtual second
	}
	run := func(proto signal.Protocol, seed uint64) outcome {
		f, err := buildVirtualFanout(proto, 4, 128, seed, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		before := f.sent()
		const windows = 5
		for i := 0; i < windows; i++ {
			f.clk.Run(f.step)
		}
		if failed, problems := f.verify(); failed != 0 || len(problems) != 0 {
			t.Errorf("proto %v seed %d: %d failed, %v", proto, seed, failed, problems)
		}
		o := outcome{held: f.held(), sent: f.sent()}
		var total int64
		for k, v := range before {
			o.sent[k] -= v
		}
		for _, v := range o.sent {
			total += v
		}
		o.per = float64(total) / (float64(f.total()) * windows * f.step.Seconds())
		return o
	}
	for _, proto := range []signal.Protocol{signal.SS, signal.HS} {
		a, b, c := run(proto, 11), run(proto, 11), run(proto, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("proto %v: same seed, different outcome:\n%+v\n%+v", proto, a, b)
		}
		if a.held != 4*128 || c.held != 4*128 {
			t.Errorf("proto %v: held %d and %d, want %d", proto, a.held, c.held, 4*128)
		}
		if a.per != c.per {
			t.Errorf("proto %v: datagrams per key·s %v with seed 11, %v with seed 12: an exact count must not depend on the seed", proto, a.per, c.per)
		}
	}
	if keyPrefix(11, 0) == keyPrefix(12, 0) || keyName(keyPrefix(11, 0), 5) == keyName(keyPrefix(11, 1), 5) {
		t.Error("key names do not depend on seed and peer")
	}
	if got := keyIndex(keyName(keyPrefix(11, 3), 4242)); got != 4242 {
		t.Errorf("keyIndex(keyName(…, 4242)) = %d", got)
	}
}

// TestSelfTimes checks the span arithmetic on synthetic input: a span's
// self time is its duration minus the union of its children, clipped to
// the parent; grandchildren count against their own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: the union is 10..50
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 3, Start: 25, End: 45},  // grandchild
		{ID: 6, Parent: 99, Start: 0, End: 7},   // parent not recorded: a root
		{ID: 7, Parent: 1, Start: 60, End: 60},  // zero-length marker
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20, 7, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// The recorder folds the same arithmetic into per-kind totals and keeps
	// counting after it stops keeping raw spans.
	r := newRecorder()
	r.armed, r.nestAll = true, true
	lane, id := r.lane("conn")
	kRoot, kChild := r.kind("clock", "Run"), r.kind("lossy", "sender.write")
	for w := uint64(1); w <= 3; w++ {
		if !r.sample() && w == 1 {
			t.Fatal("first armed window not recorded")
		}
		r.enabled.Store(true)
		root, start := r.begin(w)
		r.child(lane, true, kChild, id, start, start+10, 2)
		r.child(lane, true, kChild, id, start+10, start+30, 3)
		r.driver.add(span{ID: root, Kind: kRoot, Start: start, End: start + 100, N: 1})
		r.root.Store(0)
		r.fold()
	}
	if got := r.total("clock", "Run"); got.Count != 3 || got.DurNs != 300 || got.SelfNs != 3*70 {
		t.Errorf("Run totals = %+v", got)
	}
	if got := r.total("lossy", "sender.write"); got.Count != 6 || got.N != 15 || got.SelfNs != got.DurNs {
		t.Errorf("write totals = %+v", got)
	}
	if got := r.total("none", "none"); got != (aggregate{}) {
		t.Errorf("missing kind totals = %+v", got)
	}
}

// fakeConn is a two-lane transport.Conn that records what is written.
type fakeConn struct {
	net.PacketConn
	st      *transport.Stats
	lanes   []transport.Conn
	batches [][]int // per WriteBatch call, the first byte of each datagram
	singles int
}

func (c *fakeConn) Stats() *transport.Stats { return c.st }
func (c *fakeConn) Conns() []transport.Conn { return c.lanes }
func (c *fakeConn) Close() error            { return nil }
func (c *fakeConn) LocalAddr() net.Addr     { return benchAddr("fake") }
func (c *fakeConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	c.singles++
	return len(p), nil
}
func (c *fakeConn) WriteBatch(ms []transport.Message) (int, error) {
	var ids []int
	for _, m := range ms {
		ids = append(ids, int(m.Data[0]))
	}
	c.batches = append(c.batches, ids)
	return len(ms), nil
}
func (c *fakeConn) ReadBatch(ms []transport.Message) (int, error) {
	ms[0].Data = []byte{1}
	ms[1].Data = []byte{2}
	return 2, nil
}

// TestTracedConn checks the conn wrapper on a synthetic conn: batches
// pass through as batches, a Multi's lanes come back wrapped and share
// the conn's counters, Stats is the inner conn's, and drops follow the
// seed.
func TestTracedConn(t *testing.T) {
	st := &transport.Stats{}
	inner := &fakeConn{st: st}
	inner.lanes = []transport.Conn{&fakeConn{st: st}, &fakeConn{st: st}}
	rec := newRecorder()
	c := wrapConn(inner, "fake", "sender", "transport", rec, 0, 1)

	if c.Stats() != st {
		t.Error("Stats does not pass the inner conn's through")
	}
	lanes := c.Conns()
	if len(lanes) != 2 {
		t.Fatalf("%d lanes, want 2", len(lanes))
	}
	ring := transport.NewBatch(4)
	for _, l := range lanes {
		tl, ok := l.(*tracedConn)
		if !ok || tl.sh != c.sh {
			t.Fatal("lane not wrapped, or not sharing the conn's counters")
		}
		if n, err := l.ReadBatch(ring); n != 2 || err != nil {
			t.Fatalf("lane ReadBatch = %d, %v", n, err)
		}
	}
	if got := c.sh.readDatagrams.Load(); got != 4 {
		t.Errorf("lanes counted %d datagrams read, want 4", got)
	}
	single := wrapConn(&fakeConn{st: st}, "one", "receiver", "lossy", rec, 0, 1)
	if l := single.Conns(); len(l) != 1 || l[0] != transport.Conn(single) {
		t.Error("a single-lane conn must be its own only lane")
	}

	batch := make([]transport.Message, 32)
	for i := range batch {
		batch[i].Data = []byte{byte(i)}
	}
	if n, err := c.WriteBatch(batch); n != 32 || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	if len(inner.batches) != 1 || len(inner.batches[0]) != 32 || inner.singles != 0 {
		t.Errorf("a 32-datagram batch reached the inner conn as %v batches and %d single writes", inner.batches, inner.singles)
	}
	if c.sh.writeCalls.Load() != 1 || c.sh.writeDatagrams.Load() != 32 {
		t.Errorf("counted %d calls, %d datagrams", c.sh.writeCalls.Load(), c.sh.writeDatagrams.Load())
	}

	// Seeded drops: the same seed drops the same datagrams, another seed
	// others, about the asked share, and a dropped datagram still counts
	// as accepted by the caller.
	pattern := func(seed uint64) ([]int, int64) {
		in := &fakeConn{st: st}
		w := wrapConn(in, "lossy", "sender", "transport", rec, 0.25, seed)
		var kept []int
		for round := 0; round < 64; round++ {
			if n, err := w.WriteBatch(batch); n != len(batch) || err != nil {
				t.Fatalf("lossy WriteBatch = %d, %v", n, err)
			}
		}
		for _, b := range in.batches {
			kept = append(kept, b...)
		}
		return kept, w.sh.dropped.Load()
	}
	a, dropA := pattern(5)
	b, dropB := pattern(5)
	other, _ := pattern(6)
	if !reflect.DeepEqual(a, b) || dropA != dropB {
		t.Error("the same seed dropped different datagrams")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds dropped the same datagrams")
	}
	if total := int64(64 * len(batch)); dropA+int64(len(a)) != total || dropA < total/5 || dropA > total*3/10 {
		t.Errorf("dropped %d and kept %d of %d at p = 0.25", dropA, len(a), total)
	}

	// While the recorder is on, a write leaves a span in the conn's lane.
	rec.enabled.Store(true)
	if _, err := c.WriteBatch(batch[:3]); err != nil {
		t.Fatal(err)
	}
	rec.enabled.Store(false)
	rec.fold()
	if got := rec.total("transport", "sender.write"); got.Count != 1 || got.N != 3 {
		t.Errorf("write span totals = %+v", got)
	}
}
