package telemetry

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"softstate/internal/clock"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.newCounter(Opts{Name: "c_total"})
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("unregistered counter = %d, want 3", got)
	}
	h := r.NewHistogram(Opts{Name: "h_seconds"})
	h.Observe(time.Millisecond)
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("unregistered histogram count = %d, want 1", got)
	}
	r.GaugeFunc(Opts{Name: "f"}, func() float64 { return 1 })
	if got := r.Gather(); got != nil {
		t.Fatalf("nil registry Gather = %v, want nil", got)
	}

	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	if ng.Value() != 0 {
		t.Fatal("nil gauge reads non-zero")
	}
	var nh *Histogram
	nh.Observe(time.Second)
	if nh.Snapshot().Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
	var nt *Tracer
	nt.Record(TraceInstall, "k", 1, nil)
	if nt.Len() != 0 || nt.Events() != nil || nt.Overwritten() != 0 {
		t.Fatal("nil tracer not inert")
	}
	var np *PaperMetrics
	np.OnInstall("k")
	np.OnAck("k")
	np.OnRemove("k")
	np.OnLost("k")
	if np.Inconsistency() != 0 || np.Rate() != 0 || np.LiveKeys() != 0 {
		t.Fatal("nil paper metrics not inert")
	}
	np.Register(NewRegistry(), nil)
}

func TestRegistryCollisionGetsInstanceLabel(t *testing.T) {
	r := NewRegistry()
	r.newCounter(Opts{Name: "dup_total", Labels: Labels{"role": "sender"}})
	r.newCounter(Opts{Name: "dup_total", Labels: Labels{"role": "sender"}})
	r.newCounter(Opts{Name: "dup_total", Labels: Labels{"role": "sender"}})
	ids := make(map[string]bool)
	for _, s := range r.Gather() {
		if ids[s.ID] {
			t.Fatalf("duplicate series identity %q", s.ID)
		}
		ids[s.ID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("got %d series, want 3", len(ids))
	}
	if !ids[`dup_total{instance="2",role="sender"}`] {
		t.Fatalf("expected instance label bump, got %v", ids)
	}
}

func TestGatherSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc(Opts{Name: "zz"}, func() float64 { return 1 })
	r.newCounter(Opts{Name: "aa_total"}).Add(4)
	r.GaugeFunc(Opts{Name: "mm"}, func() float64 { return 2.5 })
	samples := r.Gather()
	var order []string
	for _, s := range samples {
		order = append(order, s.Name)
	}
	if strings.Join(order, ",") != "aa_total,mm,zz" {
		t.Fatalf("scrape order = %v", order)
	}
	if samples[0].Kind != "counter" || samples[0].Value != 4 {
		t.Fatalf("counter sample = %+v", samples[0])
	}
	if samples[1].Kind != "gauge" || samples[1].Value != 2.5 {
		t.Fatalf("gauge-func sample = %+v", samples[1])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.newCounter(Opts{Name: "sent_total", Help: "Datagrams sent.",
		Labels: Labels{"type": "trigger"}}).Add(9)
	h := r.NewHistogram(Opts{Name: "lat_seconds", Labels: Labels{"role": "sender"}})
	h.Observe(500 * time.Nanosecond) // bucket 0 (≤ ~1µs)
	h.Observe(3 * time.Microsecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP sent_total Datagrams sent.\n",
		"# TYPE sent_total counter\n",
		`sent_total{type="trigger"} 9` + "\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{role="sender",le="+Inf"} 2` + "\n",
		`lat_seconds_count{role="sender"} 2` + "\n",
		`lat_seconds_sum{role="sender"} 3.5e-06` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the last pre-Inf bucket equals the count.
	if !strings.Contains(out, `le="1.024e-06"} 1`) {
		t.Errorf("first bucket not cumulative-1:\n%s", out)
	}
}

func TestWriteJSONIsValid(t *testing.T) {
	r := NewRegistry()
	r.newCounter(Opts{Name: "c_total", Labels: Labels{"a": `q"uo\te`}}).Inc()
	r.NewHistogram(Opts{Name: "h_seconds"}).Observe(2 * time.Microsecond)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("WriteJSON output not JSON: %v\n%s", err, sb.String())
	}
	if len(got) != 2 {
		t.Fatalf("got %d keys, want 2: %v", len(got), got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	if h.Snapshot().Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 90 fast observations and 10 slow ones: p50 stays in the fast
	// bucket's bound, p99 lands in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(800 * time.Nanosecond) // bucket 0, bound 1.024µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond) // bound 2^20ns ≈ 1.049ms
	}
	if got := h.Snapshot().Quantile(0.50); got != 1024*time.Nanosecond {
		t.Fatalf("p50 = %v, want 1.024µs", got)
	}
	if got := h.Snapshot().Quantile(0.99); got != time.Duration(1)<<20 {
		t.Fatalf("p99 = %v, want %v", got, time.Duration(1)<<20)
	}
	if got := h.Snapshot().Count; got != 100 {
		t.Fatalf("count = %d", got)
	}
	// Extremes land in the edge buckets rather than panicking.
	h.Observe(-time.Second)
	h.Observe(200 * time.Hour)
	snap := h.Snapshot()
	if snap.Count != 102 {
		t.Fatalf("count after extremes = %d", snap.Count)
	}
	if last := snap.Buckets[len(snap.Buckets)-1]; last.UpperNs != bucketUpperNs(histBuckets-1) {
		t.Fatalf("overflow bucket bound = %d", last.UpperNs)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

// TestTraceRingOverflow is the satellite-required wraparound test: a full
// ring drops oldest-first, counts what it dropped, and Events still
// returns chronological order.
func TestTraceRingOverflow(t *testing.T) {
	v := clock.NewVirtual()
	tr := NewTracer(TracerConfig{Capacity: 8, Clock: v})
	for i := 0; i < 20; i++ {
		tr.Record(TraceTrigger, "k", uint64(i), nil)
		v.Run(time.Millisecond)
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := tr.Overwritten(); got != 12 {
		t.Fatalf("Overwritten = %d, want 12", got)
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest-first after wrap)", i, ev.Seq, want)
		}
		if i > 0 && evs[i].At < evs[i-1].At {
			t.Fatalf("events out of time order at %d: %v then %v", i, evs[i-1].At, evs[i].At)
		}
	}
	if got := tr.KindCounts()[TraceTrigger]; got != 8 {
		t.Fatalf("KindCounts[trigger] = %d", got)
	}
}

func TestTraceSamplingKeepsWholeLifecyclesAndSummaries(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4096, SampleEvery: 4})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, k := range keys {
		tr.Record(TraceInstall, k, 1, nil)
		tr.Record(TraceAck, k, 1, nil)
	}
	tr.Record(TraceSummary, "", 10, nil) // keyless: always kept
	perKey := make(map[string]int)
	summaries := 0
	for _, ev := range tr.Events() {
		if ev.Kind == TraceSummary {
			summaries++
			continue
		}
		perKey[ev.Key]++
	}
	if summaries != 1 {
		t.Fatalf("summary events = %d, want 1", summaries)
	}
	if len(perKey) == 0 || len(perKey) == len(keys) {
		t.Fatalf("sampling kept %d/%d keys, want a strict subset", len(perKey), len(keys))
	}
	for k, n := range perKey {
		if n != 2 {
			t.Fatalf("sampled key %q has %d events, want its whole lifecycle (2)", k, n)
		}
	}
}

func TestTraceRecordsPeerAndSink(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4})
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	tr.Record(TraceRemoval, "k", 3, addr)
	sunk := tr.Events()
	if len(sunk) != 1 || sunk[0].Peer != "127.0.0.1:9999" {
		t.Fatalf("ring holds %+v", sunk)
	}
	if s := sunk[0].String(); !strings.Contains(s, "removal") || !strings.Contains(s, `key="k"`) {
		t.Fatalf("event string = %q", s)
	}
}

func TestPaperMetricsAckWindows(t *testing.T) {
	v := clock.NewVirtual()
	var sent int64
	pm := NewPaperMetrics(PaperConfig{Clock: v, AckExpected: true,
		Sent: func() int64 { return sent }})
	pm.OnInstall("k") // t=0: live, ack window opens
	v.Run(1 * time.Second)
	pm.OnAck("k") // 1 key-second inconsistent
	v.Run(9 * time.Second)
	sent = 20
	if got, want := pm.Inconsistency(), 0.1; !close1e9(got, want) {
		t.Fatalf("I = %v, want %v", got, want)
	}
	if got, want := pm.Rate(), 2.0; !close1e9(got, want) { // 20 dg / 10 key-s
		t.Fatalf("rate = %v, want %v", got, want)
	}
	if got := pm.LiveKeys(); got != 1 {
		t.Fatalf("live = %d", got)
	}
	pm.OnRemove("k")
	v.Run(10 * time.Second)
	// Removed keys accrue nothing more on either integral.
	if got, want := pm.Inconsistency(), 0.1; !close1e9(got, want) {
		t.Fatalf("I after removal = %v, want %v", got, want)
	}
}

func TestPaperMetricsRepairWindows(t *testing.T) {
	v := clock.NewVirtual()
	pm := NewPaperMetrics(PaperConfig{Clock: v})
	pm.OnInstall("k")
	v.Run(10 * time.Second)
	pm.OnLost("k") // expiry observed at t=10
	v.Run(2 * time.Second)
	pm.OnInstall("k") // repaired at t=12: the 2s gap counts
	v.Run(0)
	if got, want := pm.Inconsistency(), 2.0/12.0; !close1e9(got, want) {
		t.Fatalf("I = %v, want %v", got, want)
	}

	// A loss never repaired within the window is presumed an intended
	// removal: the key leaves the base, the gap contributes no bad time,
	// and the key-time accrued since the loss is backed out — so I is
	// exactly what it was when the loss happened.
	pm.OnLost("k")
	v.Run(40 * time.Second)
	if got := pm.LiveKeys(); got != 0 {
		t.Fatalf("live after stale loss = %d, want 0", got)
	}
	if got, want := pm.Inconsistency(), 2.0/12.0; !close1e9(got, want) {
		t.Fatalf("I after prune = %v, want %v", got, want)
	}
}

func TestPaperMetricsRegister(t *testing.T) {
	v := clock.NewVirtual()
	pm := NewPaperMetrics(PaperConfig{Clock: v})
	r := NewRegistry()
	pm.Register(r, Labels{"protocol": "ss"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`softstate_inconsistency_ratio{protocol="ss"} 0`,
		`softstate_datagrams_per_key_per_s{protocol="ss"} 0`,
		`softstate_paper_live_keys{protocol="ss"} 0`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q in:\n%s", want, sb.String())
		}
	}
}

// close1e9 compares floats to a part-per-billion — virtual-clock integrals
// are exact, this only absorbs float64 division.
func close1e9(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	return d <= 1e-9*(b+1)
}

// newCounter creates and registers a counter.
func (r *Registry) newCounter(o Opts) *Counter {
	c := &Counter{}
	r.RegisterCounter(o, c)
	return c
}
