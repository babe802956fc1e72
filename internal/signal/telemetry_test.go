package signal

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/telemetry"
)

// traceRun drives one churned SS+RTR session — installs, loss-forced
// retransmits, acks, refreshes, reliable removals — under a virtual clock
// with the lifecycle tracer on the sender, and returns the recorded
// trace.
func traceRun(t *testing.T) []telemetry.TraceEvent {
	t.Helper()
	v := clock.NewVirtual()
	a, b, err := lossy.Pipe(lossy.Config{Loss: 0.2, Delay: time.Millisecond, Seed: 1234, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(telemetry.TracerConfig{Capacity: 1 << 14, Clock: v})
	scfg := fastConfig(SSRTR)
	scfg.Clock = v
	scfg.Trace = tr
	scfg.Shards = 1 // one timer wheel: expiry callbacks fire in one stream
	rcfg := fastConfig(SSRTR)
	rcfg.Clock = v
	rcfg.Shards = 1
	snd, err := NewSender(a, b.LocalAddr(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	rcv, err := NewReceiver(b, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()

	for i := 0; i < 24; i++ {
		if err := snd.Install(fmt.Sprintf("key/%02d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(120 * time.Millisecond)
	for i := 0; i < 8; i++ {
		if err := snd.Update(fmt.Sprintf("key/%02d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(60 * time.Millisecond)
	for i := 0; i < 12; i++ {
		if err := snd.Remove(fmt.Sprintf("key/%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(120 * time.Millisecond)
	return tr.Events()
}

// TestTraceDeterministicAcrossVirtualRuns is the tracing half of the
// virtual-time determinism guarantee: the same seed under the virtual
// clock must reproduce the lifecycle trace exactly — every event, every
// virtual timestamp, in the same order.
func TestTraceDeterministicAcrossVirtualRuns(t *testing.T) {
	first := traceRun(t)
	second := traceRun(t)
	if len(first) == 0 {
		t.Fatal("trace recorded no events")
	}
	if !reflect.DeepEqual(first, second) {
		n := len(first)
		if len(second) < n {
			n = len(second)
		}
		for i := 0; i < n; i++ {
			if first[i] != second[i] {
				t.Fatalf("traces diverge at event %d:\n  run1: %v\n  run2: %v", i, first[i], second[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	// The trace must cover the whole lifecycle this workload exercises.
	counts := map[telemetry.TraceKind]int{}
	for _, ev := range first {
		counts[ev.Kind]++
	}
	for _, k := range []telemetry.TraceKind{
		telemetry.TraceTrigger, telemetry.TraceRetransmit,
		telemetry.TraceAck, telemetry.TraceRemoval,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v events in a lossy reliable-removal run", k)
		}
	}
}

// TestStatsSnapshotConcurrentWithSends hammers Stats() — the sorted-key
// counter snapshot — from several goroutines while the endpoints are
// sending; the race detector checks snapshot-vs-increment.
func TestStatsSnapshotConcurrentWithSends(t *testing.T) {
	c := vEndpoints(t, SSRT, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if c.snd.Stats().TotalSent() < 0 {
					t.Error("negative send count")
					return
				}
				_ = c.rcv.Stats()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := c.snd.Install(fmt.Sprintf("key/%03d", i), nil); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			c.run(time.Millisecond)
		}
	}
	c.run(50 * time.Millisecond)
	close(done)
	wg.Wait()
	st := c.snd.Stats()
	if st.TotalSent() == 0 {
		t.Fatal("no datagrams counted")
	}
}

// TestWheelRebucketsExported: a receiver whose keys are kept alive by
// summary refresh re-buckets their timeout timers instead of firing them,
// and says so per shard beside the wheel depth — a shard wake-up that
// expired nothing is attributable from the scrape.
func TestWheelRebucketsExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := vEndpoints(t, SS, 0, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.SummaryRefresh = true
		cfg.Shards = 2
	})
	for i := 0; i < 32; i++ {
		if err := c.snd.Install(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.run(20 * fastConfig(SS).Timeout)
	if c.rcv.Len() != 32 {
		t.Fatalf("receiver holds %d of 32 refreshed keys", c.rcv.Len())
	}
	series, rebuckets := 0, 0.0
	for _, s := range reg.Gather() {
		if s.Name == "softstate_wheel_rebuckets_total" && strings.Contains(s.ID, `role="receiver"`) {
			series++
			rebuckets += s.Value
		}
	}
	if series != 2 {
		t.Fatalf("%d receiver rebucket series, want one per shard (2)", series)
	}
	if rebuckets == 0 {
		t.Fatal("20 timeouts of refreshed state and no re-bucket counted")
	}
}
