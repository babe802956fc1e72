package telemetry

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
)

// mapSource builds a CensusSource over a key→sum map with a fixed
// bucket function, mirroring how the endpoints' sources behave.
func mapSource(name string, buckets int, keys map[string]uint64) CensusSource {
	bucketOf := func(key string) int {
		h := keyHash(key)
		return int(h % uint32(buckets))
	}
	return CensusSource{
		Name: name,
		Fold: func() (fold uint64, _ error) {
			for _, s := range keys {
				fold += s
			}
			return fold, nil
		},
		Sums: func() ([]uint64, error) {
			out := make([]uint64, buckets)
			for k, s := range keys {
				out[bucketOf(k)] += s
			}
			return out, nil
		},
		Bucket: func(b int) ([]KeyDigest, error) {
			var out []KeyDigest
			for k, s := range keys {
				if bucketOf(k) == b {
					out = append(out, KeyDigest{Key: k, Sum: s})
				}
			}
			return out, nil
		},
	}
}

func TestRunCensusResolvesDivergence(t *testing.T) {
	intent := map[string]uint64{"a": 1, "b": 2, "c": 3, "only/intent": 9}
	held := map[string]uint64{"a": 1, "b": 2, "c": 33, "only/held": 7}
	rep := RunCensus([]CensusLink{{
		Name:   "hop1",
		Intent: mapSource("s", 8, intent),
		Held:   mapSource("r", 8, held),
	}})
	if rep.Failed != 0 {
		t.Fatalf("failed links: %+v", rep.Links)
	}
	want := []string{"c", "only/held", "only/intent"}
	if !reflect.DeepEqual(rep.Links[0].Divergent, want) {
		t.Fatalf("divergent = %v, want %v", rep.Links[0].Divergent, want)
	}
	if rep.Divergent != 3 || rep.Converged() {
		t.Fatalf("report totals: %+v", rep)
	}
	if rep.Links[0].MismatchedBuckets == 0 || rep.Links[0].Buckets != 8 {
		t.Fatalf("bucket accounting: %+v", rep.Links[0])
	}

	// Identical tables converge on the fold round alone: no bucket is
	// compared and no key listed.
	rep = RunCensus([]CensusLink{{
		Intent: mapSource("s", 8, intent),
		Held:   mapSource("r", 8, intent),
	}})
	if !rep.Converged() || rep.Links[0].Buckets != 0 || rep.Links[0].IntentKeys != 0 || rep.Links[0].HeldKeys != 0 {
		t.Fatalf("identical tables: %+v", rep.Links[0])
	}
}

func TestRunCensusXORCollision(t *testing.T) {
	// Two keys whose digests are swapped between the sides collide in
	// every sum: the fold round cannot see it, and that is the documented
	// resolution (a census detects fold differences, which a 64-bit
	// digest per (key, seq, value) makes collide only by chance, not
	// deliberately swapped digests). Assert the behavior so a future
	// strengthening shows up as a test change.
	intent := map[string]uint64{"x": 5, "y": 6}
	held := map[string]uint64{"x": 6, "y": 5}
	rep := RunCensus([]CensusLink{{
		Intent: mapSource("s", 1, intent),
		Held:   mapSource("r", 1, held),
	}})
	if !rep.Converged() || rep.Links[0].Buckets != 0 {
		t.Fatalf("colliding folds went past the fold round: %+v", rep.Links[0])
	}
}

func TestRunCensusErrors(t *testing.T) {
	bad := CensusSource{
		Name:   "down",
		Fold:   func() (uint64, error) { return 0, errors.New("peer timeout") },
		Sums:   func() ([]uint64, error) { return nil, errors.New("peer timeout") },
		Bucket: func(int) ([]KeyDigest, error) { return nil, errors.New("peer timeout") },
	}
	ok := mapSource("up", 4, map[string]uint64{"k": 1})
	rep := RunCensus([]CensusLink{{Name: "l", Intent: ok, Held: bad}})
	if rep.Failed != 1 || rep.Links[0].Err == "" || rep.Converged() {
		t.Fatalf("failed exchange: %+v", rep)
	}
	// Bucket-count mismatch is an error, not a diff.
	other := mapSource("r", 8, map[string]uint64{"k": 2})
	rep = RunCensus([]CensusLink{{Intent: ok, Held: other}})
	if rep.Failed != 1 {
		t.Fatalf("bucket mismatch not failed: %+v", rep.Links[0])
	}
}

func TestAuditorGaugeAndHTTP(t *testing.T) {
	reg := NewRegistry()
	a := NewAuditor()
	a.Register(reg, Labels{"role": "test"})
	gauge := func() float64 {
		for _, s := range reg.Gather() {
			if s.Name == "softstate_divergent_keys" {
				return s.Value
			}
		}
		t.Fatal("gauge not registered")
		return 0
	}
	if g := gauge(); g != -1 {
		t.Fatalf("pre-census gauge = %v, want -1", g)
	}
	a.AddLink(CensusLink{
		Name:   "hop1",
		Intent: mapSource("s", 4, map[string]uint64{"a": 1, "b": 2}),
		Held:   mapSource("r", 4, map[string]uint64{"a": 1}),
	})
	rr := httptest.NewRecorder()
	a.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/census", nil))
	var rep CensusReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("census body: %v\n%s", err, rr.Body.String())
	}
	if rep.Divergent != 1 || len(rep.Links) != 1 || rep.Links[0].Divergent[0] != "b" {
		t.Fatalf("served report: %+v", rep)
	}
	if g := gauge(); g != 1 {
		t.Fatalf("post-census gauge = %v, want 1", g)
	}
	if last := a.Last(); last == nil || last.Seq != 1 {
		t.Fatalf("last report: %+v", last)
	}
}

func TestTracerSampled(t *testing.T) {
	var nilT *Tracer
	if nilT.Sampled("k") {
		t.Fatal("nil tracer samples")
	}
	all := NewTracer(TracerConfig{SampleEvery: 1})
	if !all.Sampled("anything") || !all.Sampled("") {
		t.Fatal("SampleEvery=1 must sample every key")
	}
	some := NewTracer(TracerConfig{SampleEvery: 64})
	hit, miss := false, false
	for i := 0; i < 10000 && (!hit || !miss); i++ {
		if some.Sampled(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i))) {
			hit = true
		} else {
			miss = true
		}
	}
	if !hit || !miss {
		t.Fatalf("SampleEvery=64: hit=%v miss=%v", hit, miss)
	}
	// Sampled and Record agree: a sampled key's events are retained.
	some2 := NewTracer(TracerConfig{SampleEvery: 64})
	for i := 0; i < 1000; i++ {
		key := "flow/" + string(rune('a'+i%26)) + string(rune(i))
		some2.Record(TraceTrigger, key, uint64(i), nil)
		want := 0
		if some2.Sampled(key) {
			want = 1
		}
		got := 0
		for _, ev := range some2.Events() {
			if ev.Key == key {
				got++
			}
		}
		if got != want {
			t.Fatalf("key %q: recorded %d events, Sampled=%v", key, got, want)
		}
	}
}

func TestTraceHandlerNewestFirst(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8})
	for i := 0; i < 12; i++ { // wraps the ring
		tr.Record(TraceTrigger, "k", uint64(i), nil)
	}
	h := TraceHandler(tr)
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/debug/trace.json?n=3", nil))
	var out struct {
		Retained    int    `json:"retained"`
		Overwritten uint64 `json:"overwritten"`
		Events      []struct {
			Kind string `json:"kind"`
			Seq  uint64 `json:"seq"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("trace body: %v\n%s", err, rr.Body.String())
	}
	if out.Retained != 8 || out.Overwritten != 4 {
		t.Fatalf("ring accounting: %+v", out)
	}
	if len(out.Events) != 3 {
		t.Fatalf("n=3 returned %d events", len(out.Events))
	}
	for i, want := range []uint64{11, 10, 9} { // newest first
		if out.Events[i].Seq != want || out.Events[i].Kind != "trigger" {
			t.Fatalf("event %d = %+v, want seq %d", i, out.Events[i], want)
		}
	}
}
