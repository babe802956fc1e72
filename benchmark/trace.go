package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// linkSums adds the boundary counters of a set of wrapped conns.
type linkSums struct {
	writeCalls, writeDatagrams int64
	readCalls, readDatagrams   int64
}

func sumLinks(links []*linkShared) linkSums {
	var s linkSums
	for _, l := range links {
		s.writeCalls += l.writeCalls.Load()
		s.writeDatagrams += l.writeDatagrams.Load()
		s.readCalls += l.readCalls.Load()
		s.readDatagrams += l.readDatagrams.Load()
	}
	return s
}

// cost sums the windows that pick selects and returns what one operation
// cost in them: wall ns per op, or CPU ns per op where the windows carry
// CPU (churn-chain, whose pacer pins the wall rate).
func cost(ws []window, pick func(window) bool) float64 {
	var wall, cpu, ops float64
	for _, w := range ws {
		if pick(w) {
			wall += float64(w.wallNs)
			cpu += float64(w.cpuNs)
			ops += w.ops
		}
	}
	if cpu > 0 {
		return ratio(cpu, ops)
	}
	return ratio(wall, ops)
}

// tracedPass sets the workload up once and splits the timed region in
// two. The first half runs with the recorder off: counts and process
// numbers come from it. The second half runs armed: every traceEvery-th
// window is recorded in full, and the windows in between are the
// reference its overhead is measured against. Then it runs the replay
// rows, reports every per-layer metric, and writes the spans out.
func tracedPass(w workloadSpec, sz sizes, seed uint64, d time.Duration) (report, error) {
	rec := newRecorder()
	rec.nestAll = w.virtual
	wd, err := w.build(sz, seed, rec)
	if err != nil {
		return report{}, err
	}
	wd.warm()
	ref := measureSteady(wd, d/2, nil)

	var links0 linkSums
	var parks0 int64
	rec.armed = true
	p := measureSteady(wd, d/2, func() {
		rec.reset() // a discarded region's spans go with it
		links0, parks0 = sumLinks(wd.links()), wd.parks()
	})
	rec.armed = false
	links, parks := sumLinks(wd.links()), wd.parks()-parks0

	rep := report{Metrics: map[string]metric{}}
	if p.invalid == "" {
		p.invalid = ref.invalid
	}
	p.attempted += ref.attempted
	p.failed += ref.failed
	finish(wd, p, &rep)

	vals, err := replayRows(sz, seed)
	if err != nil {
		return report{}, err
	}
	for k, v := range ref.extra {
		vals[k] = v
	}

	// Boundary spans, from the recorded windows.
	var tracedWall float64
	for _, win := range p.windows {
		if win.traced {
			tracedWall += float64(win.wallNs)
		}
	}
	sweep := rec.total("signal", "sweep")
	vals["signal.sweep_self_ns_per_key"] = ratio(float64(sweep.SelfNs), float64(sweep.N))
	vals["signal.sender_busy_share"] = ratio(float64(sweep.DurNs), tracedWall)
	dispatch := rec.total("signal", "receiver.dispatch")
	vals["signal.dispatch_ns_per_datagram"] = ratio(float64(dispatch.DurNs), float64(dispatch.N))
	vals["signal.receiver_busy_cores"] = ratio(float64(dispatch.DurNs), tracedWall)
	linkLayer := "lossy"
	if !w.virtual {
		linkLayer = "transport"
		vals["transport.datagrams_per_write_call"] = ratio(float64(links.writeDatagrams-links0.writeDatagrams), float64(links.writeCalls-links0.writeCalls))
		vals["transport.datagrams_per_read_call"] = ratio(float64(links.readDatagrams-links0.readDatagrams), float64(links.readCalls-links0.readCalls))
	}
	sw, rw := rec.total(linkLayer, "sender.write"), rec.total(linkLayer, "receiver.write")
	vals[linkLayer+".write_ns_per_datagram"] = ratio(float64(sw.DurNs+rw.DurNs), float64(sw.N+rw.N))
	run := rec.total("clock", "Run")
	vals["clock.run_overhead_share"] = ratio(float64(run.SelfNs), float64(run.DurNs))
	vals["clock.gate_parks_per_vsec"] = ratio(float64(parks), p.virtualSec)

	// Counts and process numbers, from the untraced half.
	for _, t := range sentTypes {
		vals["signal.datagrams_per_op."+t] = ratio(float64(ref.sent[t]), ref.ops)
	}
	refCPU := ratio(float64(ref.proc.cpu), ref.ops)
	vals["process.allocs_per_op"] = ratio(float64(ref.proc.mallocs), ref.ops)
	vals["process.gc_cycles"] = float64(ref.proc.gcCycles)
	vals["process.gc_cpu_share"] = ratio(ref.proc.gcCPU, ref.proc.cpu.Seconds())
	vals["process.peak_rss_mb"] = peakRSSMB()

	// Tracing overhead: what an operation cost over the whole armed half,
	// against what it cost in that half's unrecorded windows.
	untraced := cost(p.windows, func(w window) bool { return !w.traced })
	armed := cost(p.windows, func(window) bool { return true })
	vals["process.trace_overhead_ratio"] = ratio(armed, untraced)
	fmt.Printf("trace overhead: %.1f ns/op over the armed half, %.1f ns/op in its unrecorded windows, %.1f ns/op in its recorded ones\n",
		armed, untraced, cost(p.windows, func(w window) bool { return w.traced }))

	// Do the layer costs add up? The refresh path per key is the sender's
	// sweep, the link, and the receiver's summary handling; compare with
	// what the whole process spent per confirmed renewal.
	link := vals["lossy.deliver_ns_per_datagram"] / summaryKeys
	sum := vals["signal.session_sweep_ns_per_key"] + vals["signal.receiver_summary_ns_per_key"] + link
	vals["layers.refresh_path_sum_ns_per_key"] = sum
	if w.name == "refresh-fanout" {
		cov := ratio(sum, refCPU)
		vals["layers.refresh_path_coverage"] = cov
		fmt.Printf("layers: refresh path %.1f ns/key = sweep %.1f + link %.1f + receiver %.1f; the process spent %.1f CPU-ns per renewal; coverage %.2f\n",
			sum, vals["signal.session_sweep_ns_per_key"], link, vals["signal.receiver_summary_ns_per_key"], refCPU, cov)
		if cov < 0.5 || cov > 1.2 {
			fmt.Println("warning: layer costs do not add up to the end-to-end cost (coverage outside 0.5–1.2)")
		}
	}

	for _, d := range perLayer {
		rep.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	path := tracePath(w.name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return report{}, err
	}
	if err := rec.writeTrace(path, w.name); err != nil {
		return report{}, err
	}
	fmt.Printf("trace: %d spans kept, %d folded into totals only, written to %s\n", len(rec.kept), rec.dropped, path)
	return rep, nil
}
