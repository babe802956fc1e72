package main

import (
	"fmt"
	"sort"
	"time"

	"softstate/internal/rand"
)

// The workloads are fixed here and nowhere else: no flag changes a size,
// a rate or a protocol timer, so a parent commit and a change always run
// the same thing. Only the length of the timed region comes from outside
// (-seconds, which BENCHMARK.json pins).
const (
	summaryKeys = 64 // keys per summary-refresh datagram on both refresh workloads
	tableShards = 16

	refreshInterval = 100 * time.Millisecond // R on the virtual workloads
	holdWindow      = 300 * time.Millisecond // T = ProbeInterval under HS
)

// sizes is how big the workloads and the replay rows are. The command
// always runs fullSize; only the package's own tests run anything else.
type sizes struct {
	peers int // receivers of the fan-out workloads
	// refreshKeys is the keys held per peer on the two refresh workloads;
	// holdKeys the per-peer population under HS, where every key costs a
	// probe round trip per window.
	refreshKeys, holdKeys int
	churnBase             int           // keys installed in churn-chain's set-up and held throughout
	churnRate             int           // installs per second, each followed by its remove
	churnHold             time.Duration // how long after its install
	// The replay rows: replayPeers senders × replayKeys keys each on the
	// refresh path, replayOps installs on the trigger path.
	replayPeers, replayKeys, replayOps int
}

// fullSize: 64 × 4096 = 262,144 refreshed entries (≈ 0.1 s per sweep on
// two cores, so a 20 s region holds ≈ 200 windows), 65,536 probed ones,
// and ≈ 4,000 churned keys live over a base of 4,096.
var fullSize = sizes{
	peers: 64, refreshKeys: 4096, holdKeys: 1024,
	churnBase: 4096, churnRate: 2000, churnHold: 2 * time.Second,
	replayPeers: 16, replayKeys: 4096, replayOps: 16384,
}

// window is one unit of the timed region: one Run(R) in virtual time, one
// confirmed sweep on real sockets, one second of wall time on churn-chain.
type window struct {
	wallNs int64
	ops    float64 // work confirmed at the receivers inside the window
	cpuNs  int64   // process CPU inside the window (churn-chain only)
	traced bool    // the recorder was on
}

// phase is what one pass over a workload's timed region measured.
type phase struct {
	proc      procSample // deltas over the region
	windows   []window
	latencyMs []float64 // one sample per op that has a latency of its own
	ops       float64   // confirmed at the receivers
	attempted int64
	failed    int64
	// virtualSec is the virtual time the region advanced (virtual
	// workloads only).
	virtualSec float64
	sent       map[string]int64 // datagrams written by every endpoint, by wire type
	// extra carries per-layer numbers only this workload's driver can
	// produce (pacer lateness, per-hop latency, …).
	extra map[string]float64
	// invalid, when set, says why the numbers must not be published
	// (the open-loop pacer was starved).
	invalid string
}

func (p *phase) datagrams() int64 {
	var n int64
	for _, v := range p.sent {
		n += v
	}
	return n
}

// opsPerSec is the median over windows of confirmed work per wall second.
func (p *phase) opsPerSec() (p25, p50, p75 float64) {
	rates := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		if w.wallNs > 0 {
			rates = append(rates, w.ops/(float64(w.wallNs)/1e9))
		}
	}
	return quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75)
}

// world is one built and converged workload.
type world interface {
	// drive runs the timed region for about d of wall time and fills in
	// windows, latencies, ops, attempted and failed.
	drive(d time.Duration, p *phase)
	// sent sums Stats().Sent over every endpoint, by wire type.
	sent() map[string]int64
	// verify checks the program's outputs after the last drive. It returns
	// how many operations the checks found failed, and what was wrong.
	verify() (failed int64, problems []string)
	// entries is the held (peer, key) entries set-up installed: the
	// denominator of heap_bytes_per_key.
	entries() int64
	// links are the wrapped conns, for the boundary counts.
	links() []*linkShared
	// parks reports clock.Virtual.Parks() (0 on wall workloads).
	parks() int64
	// warm brings an open-loop workload to its steady state before the
	// timed region; closed loops have nothing to warm.
	warm()
	close()
}

// measure runs one pass of the timed region and takes the process-level
// deltas around it.
func measure(w world, d time.Duration) *phase {
	p := &phase{extra: map[string]float64{}}
	sent0 := w.sent()
	proc0 := sampleProc()
	w.drive(d, p)
	proc1 := sampleProc()
	p.proc = procSample{
		cpu:      proc1.cpu - proc0.cpu,
		mallocs:  proc1.mallocs - proc0.mallocs,
		gcCycles: proc1.gcCycles - proc0.gcCycles,
		gcCPU:    proc1.gcCPU - proc0.gcCPU,
	}
	p.sent = w.sent()
	for k, v := range sent0 {
		p.sent[k] -= v
	}
	return p
}

// keyPrefix is the seeded part of a key name: eight hex digits drawn from
// (seed, scope), so every seed names different keys of the same length.
func keyPrefix(seed uint64, scope int) string {
	r := rand.NewSource(seed ^ uint64(scope+1)*0x9e3779b97f4a7c15)
	return fmt.Sprintf("%08x", uint32(r.Uint64()))
}

// keyName is key i under prefix; fixed width keeps datagram sizes equal
// across seeds.
func keyName(prefix string, i int) string { return fmt.Sprintf("%s/%07d", prefix, i) }

// keyIndex recovers i from keyName(prefix, i); -1 for a foreign key.
func keyIndex[T string | []byte](key T) int {
	if len(key) != 16 || key[8] != '/' {
		return -1
	}
	n := 0
	for i := 9; i < len(key); i++ {
		c := key[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// keyValue is the state value installed for every key.
func keyValue(seed uint64) []byte {
	return []byte(fmt.Sprintf("%08x", uint32(seed*0x9e3779b97f4a7c15>>32)))
}

// permutation is a seeded shuffle of 0..n-1 (install order).
func permutation(seed uint64, n int) []int {
	r := rand.NewSource(seed ^ 0x0dde)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mergeSent adds one endpoint's Stats().Sent into total.
func mergeSent(total map[string]int64, sent map[string]int) {
	for k, v := range sent {
		total[k] += int64(v)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
