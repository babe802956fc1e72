// Command benchmark is the repository's benchmark: four fixed workloads
// over the live signaling stack, scored end to end from outside the
// program and, in a separate traced pass, layer by layer. See README.md
// in this directory for the workloads, the metrics and how they interact.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one pass of one workload and prints every metric by name and unit,
// then one JSON object as the last line of standard output. With -trace 0
// the pass is untraced and reports the end-to-end metrics; with -trace 1
// it reports the per-layer metrics and writes the spans to
// .bench_build/trace-<workload>.json. Without -workload it runs all four
// workloads, untraced pass then traced pass. A failed output check, failed
// operations, or an open-loop pacer that could not keep its schedule — in
// every region the run measured, see maxRegions — make the exit code
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"softstate/internal/signal"
)

// workloadSpec is one fixed workload: its name and how to build it.
type workloadSpec struct {
	name string
	// virtual says the workload runs under the virtual clock, whose gate
	// serializes all work inside Run: receiver-side spans nest under the
	// driver's span, and the run gets one P. oneCPU pins the process to one
	// CPU for the run. The two virtual workloads and churn-chain, which
	// needs a third of a core, cannot use a second CPU — but where the
	// kernel placed their threads on a two-vCPU machine decided the result.
	// churn-chain's system time was bimodal (1.0 s or 2.1 s per 10 s region,
	// as wake-ups crossed CPUs or did not); pinned, its CPU per operation
	// repeats within 4 %. The virtual workloads hand every datagram from the
	// driver to a reader goroutine and back: with one P that is a goroutine
	// switch, with two it is a thread wake-up whose cost the placement
	// decides (unpinned runs of refresh-fanout spread 5 %, pinned single-P
	// runs 1 %; two Ps time-sliced on one CPU are worse than either).
	// refresh-realwire, whose point is the overlap of the sender and the
	// receivers on two cores, runs unpinned with the default GOMAXPROCS.
	virtual bool
	oneCPU  bool
	// setups is how many times an untraced run sets the workload up:
	// setup_s is the median, and the last one is measured. A set-up takes
	// 0.25 s to 1.5 s and repeats within ±20 % whatever the seed, so each
	// workload gets about as many as fit in four seconds.
	setups int
	build  func(sz sizes, seed uint64, rec *recorder) (world, error)
}

var workloads = []workloadSpec{
	{name: "refresh-fanout", virtual: true, oneCPU: true, setups: 3, build: func(sz sizes, seed uint64, rec *recorder) (world, error) {
		return buildVirtualFanout(signal.SS, sz.peers, sz.refreshKeys, seed, rec)
	}},
	{name: "refresh-realwire", setups: 3, build: func(sz sizes, seed uint64, rec *recorder) (world, error) {
		return buildRealwire(sz.peers, sz.refreshKeys, seed, rec)
	}},
	{name: "churn-chain", oneCPU: true, setups: 15, build: func(sz sizes, seed uint64, rec *recorder) (world, error) {
		return buildChurnChain(sz.churnBase, sz.churnRate, sz.churnHold, seed, rec)
	}},
	{name: "hold-hs", virtual: true, oneCPU: true, setups: 9, build: func(sz sizes, seed uint64, rec *recorder) (world, error) {
		return buildVirtualFanout(signal.HS, sz.peers, sz.holdKeys, seed, rec)
	}},
}

// A timed region the machine spoiled is measured again, not published and
// not fatal: the process was frozen for longer than an operation's
// deadline, or starved until the open-loop pacer lost its schedule. On a
// shared host that happens to about one region in a hundred, and a
// benchmark that is run a hundred times cannot fail on it. A program that
// really loses operations loses them in every region — and in the output
// checks, which run once at the end over the state all regions left — so
// the run still fails, on the last region's counts. maxRegions bounds the
// attempts and runBudget the time: a region is only measured again while
// the run stays well inside the 180 s it is given.
const (
	maxRegions = 3
	runBudget  = 150 * time.Second
)

var started = time.Now()

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Invalid, when set, says the machine could not keep the open-loop
	// schedule: the run is printed and counted as failed, not published.
	Invalid string `json:"-"`
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
	seed := flag.Uint64("seed", 1, "seed for key names, install order and loss streams")
	seconds := flag.Int("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	printEnvironment()
	c := cpus{procs: runtime.GOMAXPROCS(0)}
	c.all, c.err = allowedCPUs()
	ok := true
	if *name == "" {
		for _, w := range workloads {
			for tr := 0; tr <= 1; tr++ {
				ok = runOne(w, c, *seed, time.Duration(*seconds)*time.Second, tr == 1) && ok
			}
		}
	} else {
		w, found := findWorkload(*name)
		if !found {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ok = runOne(w, c, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if !ok {
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// printEnvironment records what the numbers were taken on.
func printEnvironment() {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel)
	fmt.Println("environment: real-socket workloads cross the host's loopback interface, not a link")
}

// cpus is what the process was started with: the CPUs it may run on (err
// says why they are unknown) and the default GOMAXPROCS.
type cpus struct {
	all   cpuMask
	err   error
	procs int
}

// place puts the process on the CPUs and the GOMAXPROCS the workload is
// meant to run with and prints where it ended up. Failing to pin is
// reported, not fatal: the numbers are then noisier, not wrong.
func place(w workloadSpec, c cpus) {
	procs := c.procs
	if w.virtual {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	on, err := c.all, c.err
	if err == nil {
		if w.oneCPU {
			on = firstCPU(on)
		}
		err = setAffinity(on)
	}
	if err != nil {
		fmt.Printf("environment: %s runs with GOMAXPROCS=%d, unpinned: %v\n", w.name, procs, err)
		return
	}
	fmt.Printf("environment: %s runs with GOMAXPROCS=%d on %d CPU(s)\n", w.name, procs, on.count())
}

// runOne runs one pass of one workload, prints it, and reports whether
// the run may be published (checks passed, pacer kept its schedule).
func runOne(w workloadSpec, c cpus, seed uint64, d time.Duration, traced bool) bool {
	fmt.Printf("== %s seed=%d seconds=%v trace=%v\n", w.name, seed, d.Seconds(), traced)
	place(w, c)
	var rep report
	var err error
	if traced {
		rep, err = tracedPass(w, fullSize, seed, d)
	} else {
		rep, err = untracedPass(w, fullSize, seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return false
	}
	for _, n := range sortedKeys(rep.Metrics) {
		fmt.Printf("%-44s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return rep.Correct
}

// finish runs the output checks, folds what they found into the counts,
// and closes the world.
func finish(w world, p *phase, rep *report) {
	failed, problems := w.verify()
	w.close()
	if rep.Invalid = p.invalid; rep.Invalid != "" {
		problems = append(problems, "INVALID RUN: "+rep.Invalid)
	}
	for _, msg := range problems {
		fmt.Println("check failed:", msg)
	}
	rep.Attempted = p.attempted
	rep.Failed = p.failed + failed
	if len(problems) > 0 && rep.Failed == 0 {
		rep.Failed = 1 // a failed check is never dropped from the count
	}
	if rep.Attempted < rep.Failed {
		rep.Attempted = rep.Failed
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0
}

// measureSteady measures the timed region, and measures it again when the
// region is invalid or has failed operations (see maxRegions). begin, when
// not nil, runs before every attempt.
func measureSteady(w world, d time.Duration, begin func()) *phase {
	for attempt := 1; ; attempt++ {
		if begin != nil {
			begin()
		}
		p := measure(w, d)
		why := p.invalid
		if why == "" && p.failed > 0 {
			why = fmt.Sprintf("%d of %d operations failed", p.failed, p.attempted)
		}
		if why == "" || attempt == maxRegions || time.Since(started)+d+30*time.Second > runBudget {
			return p
		}
		fmt.Printf("region %d discarded, measuring again: %s\n", attempt, why)
	}
}

// untracedPass sets the workload up w.setups times, measures the last
// one with the recorder off, and reports the end-to-end metrics.
func untracedPass(w workloadSpec, sz sizes, seed uint64, d time.Duration) (report, error) {
	rec := newRecorder()
	var setups, heaps []float64
	var wd world
	for i := 0; i < w.setups; i++ {
		base := heapLive()
		t0 := time.Now()
		built, err := w.build(sz, seed, rec)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, float64(heapLive()-base)/float64(built.entries()))
		if i < w.setups-1 {
			built.close()
			continue
		}
		wd = built
	}
	wd.warm()
	p := measureSteady(wd, d, nil)
	rep := report{Metrics: map[string]metric{}}
	finish(wd, p, &rep)

	p25, p50, p75 := p.opsPerSec()
	fmt.Printf("set-ups: %.4g s\n", setups)
	fmt.Printf("windows=%d ops_per_s p25=%.6g p50=%.6g p75=%.6g  latency samples=%d p99=%.4g ms  failed/attempted=%d/%d\n",
		len(p.windows), p25, p50, p75, len(p.latencyMs), quantile(p.latencyMs, 0.99), rep.Failed, rep.Attempted)
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["ops_per_s"] = metric{p50, "1/s"}
	rep.Metrics["cpu_ns_per_op"] = metric{ratio(float64(p.proc.cpu), p.ops), "ns"}
	rep.Metrics["latency_p50_ms"] = metric{median(p.latencyMs), "ms"}
	rep.Metrics["datagrams_per_op"] = metric{ratio(float64(p.datagrams()), p.ops), "1/op"}
	rep.Metrics["heap_bytes_per_key"] = metric{median(heaps), "B"}
	return rep, nil
}

// tracePath is where the traced pass leaves its spans: inside the
// checkout, under the build directory .gitignore already names.
func tracePath(workload string) string {
	return filepath.Join(".bench_build", "trace-"+workload+".json")
}
