package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusRacesRegistration hammers the exporter while other
// goroutines register new instruments and observe into a shared
// histogram. Under -race this is the data-race check; the assertions
// verify every scrape stays parseable.
func TestWritePrometheusRacesRegistration(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram(Opts{Name: "softstate_race_seconds", Help: "race test"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Bounded: every scrape sorts and renders the whole registry, so a
		// registrar that outpaces the 50 scrapes would otherwise grow it
		// (and each scrape) without limit. Past the cap the last counter
		// keeps moving, so scrapes still race a writer.
		const maxRegistered = 4096
		var c *Counter
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i < maxRegistered {
				c = reg.newCounter(Opts{
					Name:   "softstate_race_total",
					Labels: Labels{"i": strconv.Itoa(i)},
				})
			}
			c.Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Observe(time.Duration(i%1000) * time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if !strings.Contains(sb.String(), "# TYPE softstate_race_seconds histogram") {
			t.Fatalf("scrape %d lost the histogram TYPE line", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPrometheusBucketMonotonicity scrapes a histogram under concurrent
// Observe load and asserts the _bucket series is cumulative-monotonic
// with +Inf as the maximum — the format invariant scrapers depend on.
func TestPrometheusBucketMonotonicity(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram(Opts{Name: "softstate_mono_seconds", Help: "monotonicity test"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration((i+w)%100000) * time.Microsecond)
			}
		}(w)
	}
	for scrape := 0; scrape < 100; scrape++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		assertMonotonicBuckets(t, sb.String(), "softstate_mono_seconds_bucket")
	}
	close(stop)
	wg.Wait()

	// Quiescent spot check: +Inf equals _count equals total observations.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	inf, count := int64(-1), int64(-1)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "softstate_mono_seconds_bucket{le=\"+Inf\"}") {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &inf)
		}
		if strings.HasPrefix(line, "softstate_mono_seconds_count ") {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count)
		}
	}
	if inf < 0 || inf != count || inf != h.Snapshot().Count {
		t.Fatalf("quiescent +Inf=%d _count=%d Count()=%d", inf, count, h.Snapshot().Count)
	}
}

// assertMonotonicBuckets parses one exposition and checks each _bucket
// series value is >= its predecessor, ending at +Inf.
func assertMonotonicBuckets(t *testing.T, text, prefix string) {
	t.Helper()
	prev := int64(-1)
	sawInf := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix+"{") {
			continue
		}
		if sawInf {
			t.Fatalf("bucket line after +Inf: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("non-monotonic buckets: %q after %d\n%s", line, prev, text)
		}
		prev = v
		if strings.Contains(line, `le="+Inf"`) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatalf("no +Inf bucket in exposition:\n%s", text)
	}
}
