package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// The convergence auditor. A census compares the state a sender intends
// a peer to hold against the state the peer actually holds. Each side
// first gives its fold of the link — one sum over every key's digest,
// which both ends keep as they change state — and a link whose folds agree
// has converged. Only a link whose folds differ goes on: a per-bucket sum
// comparison finds the mismatched buckets, then a per-bucket key listing
// resolves each mismatch down to the exact divergent keys. Both sides of a link expose the same two-round surface
// (CensusSource), whether the table is in-process or behind the wire's
// TypeDigest exchange, so the auditor is indifferent to topology: a
// five-hop chain is just four links. Per-link agreement composes — if
// every adjacent link agrees, the chain has converged end to end.

// KeyDigest is one key's individual digest contribution.
type KeyDigest struct {
	Key string `json:"key"`
	Sum uint64 `json:"sum"`
}

// CensusSource is one table's digest read surface. Fold returns the sum of
// every key's digest (O(1): the endpoint keeps it as it changes state);
// Sums the per-bucket sums of the same digests, and Bucket lists the keys
// contributing to one bucket with their individual digests, each from a
// walk of the link's keys. Remote tables answer all three via the wire
// digest exchange; any call may fail (peer down, census timeout).
type CensusSource struct {
	// Name identifies the table in reports ("sender@addr", "receiver").
	Name string
	// Fold returns the current fold of the link.
	Fold func() (uint64, error)
	// Sums returns the current per-bucket digest sums.
	Sums func() ([]uint64, error)
	// Bucket returns the keys contributing to bucket b.
	Bucket func(b int) ([]KeyDigest, error)
}

// CensusLink pairs a sender's intended state with the downstream state
// it signals into.
type CensusLink struct {
	// Name identifies the link in reports ("hop1", "a->b").
	Name string
	// Intent is the upstream sender's table, Held the downstream
	// receiver's.
	Intent, Held CensusSource
}

// LinkReport is one link's census outcome.
type LinkReport struct {
	Name string `json:"name"`
	// Buckets is the compared bucket count (0 when the folds already
	// agreed), MismatchedBuckets how many disagreed on the summary round.
	Buckets           int `json:"buckets"`
	MismatchedBuckets int `json:"mismatched_buckets"`
	// IntentKeys/HeldKeys count the keys listed while resolving
	// mismatched buckets (0 when the summaries already agreed).
	IntentKeys int `json:"intent_keys"`
	HeldKeys   int `json:"held_keys"`
	// Divergent lists the resolved divergent keys, sorted: keys present
	// on exactly one side, or present on both with different digests.
	Divergent []string `json:"divergent"`
	// Err records a failed exchange; the link's divergence is then
	// unknown and excluded from the report totals.
	Err string `json:"err,omitempty"`
}

// CensusReport is one complete census over every registered link.
type CensusReport struct {
	// Seq numbers censuses from the same auditor.
	Seq   uint64       `json:"seq"`
	Links []LinkReport `json:"links"`
	// Divergent is the total divergent-key count across links.
	Divergent int `json:"divergent_keys"`
	// Failed counts links whose exchange errored.
	Failed int `json:"failed_links"`
}

// Converged reports whether every link completed its exchange and
// resolved zero divergent keys.
func (r *CensusReport) Converged() bool {
	return r != nil && r.Failed == 0 && r.Divergent == 0
}

// censusLink runs the exchange for one link: the fold round, then, if the
// folds disagree, the summary and detail rounds.
func censusLink(l CensusLink) LinkReport {
	rep := LinkReport{Name: l.Name, Divergent: []string{}}
	iFold, err := l.Intent.Fold()
	if err != nil {
		rep.Err = fmt.Sprintf("%s: %v", l.Intent.Name, err)
		return rep
	}
	hFold, err := l.Held.Fold()
	if err != nil {
		rep.Err = fmt.Sprintf("%s: %v", l.Held.Name, err)
		return rep
	}
	if iFold == hFold {
		return rep
	}
	is, err := l.Intent.Sums()
	if err != nil {
		rep.Err = fmt.Sprintf("%s: %v", l.Intent.Name, err)
		return rep
	}
	hs, err := l.Held.Sums()
	if err != nil {
		rep.Err = fmt.Sprintf("%s: %v", l.Held.Name, err)
		return rep
	}
	if len(is) != len(hs) {
		rep.Err = fmt.Sprintf("bucket count mismatch: %s has %d, %s has %d",
			l.Intent.Name, len(is), l.Held.Name, len(hs))
		return rep
	}
	rep.Buckets = len(is)
	for b := range is {
		if is[b] == hs[b] {
			continue
		}
		rep.MismatchedBuckets++
		ik, err := l.Intent.Bucket(b)
		if err != nil {
			rep.Err = fmt.Sprintf("%s bucket %d: %v", l.Intent.Name, b, err)
			return rep
		}
		hk, err := l.Held.Bucket(b)
		if err != nil {
			rep.Err = fmt.Sprintf("%s bucket %d: %v", l.Held.Name, b, err)
			return rep
		}
		rep.IntentKeys += len(ik)
		rep.HeldKeys += len(hk)
		intent := make(map[string]uint64, len(ik))
		for _, kd := range ik {
			intent[kd.Key] = kd.Sum
		}
		for _, kd := range hk {
			sum, ok := intent[kd.Key]
			if ok && sum == kd.Sum {
				delete(intent, kd.Key) // converged
				continue
			}
			if ok {
				delete(intent, kd.Key)
			}
			rep.Divergent = append(rep.Divergent, kd.Key) // held-only or sum mismatch
		}
		for key := range intent { // intent-only
			rep.Divergent = append(rep.Divergent, key)
		}
	}
	sort.Strings(rep.Divergent)
	return rep
}

// RunCensus runs one census over the given links.
func RunCensus(links []CensusLink) *CensusReport {
	rep := &CensusReport{Links: make([]LinkReport, 0, len(links))}
	for _, l := range links {
		lr := censusLink(l)
		if lr.Err != "" {
			rep.Failed++
		}
		rep.Divergent += len(lr.Divergent)
		rep.Links = append(rep.Links, lr)
	}
	return rep
}

// Auditor owns a set of links and runs censuses over them, retaining the
// latest report for scraping. All methods are safe for concurrent use
// and safe on a nil receiver, matching the package convention.
type Auditor struct {
	mu    sync.Mutex
	links []CensusLink
	seq   atomic.Uint64
	last  atomic.Pointer[CensusReport]
	runs  Counter
}

// NewAuditor returns an auditor with no links.
func NewAuditor() *Auditor { return &Auditor{} }

// AddLink registers a link for subsequent censuses.
func (a *Auditor) AddLink(l CensusLink) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.links = append(a.links, l)
	a.mu.Unlock()
}

// Run executes one census over the registered links and retains the
// report.
func (a *Auditor) Run() *CensusReport {
	if a == nil {
		return &CensusReport{Links: []LinkReport{}}
	}
	a.mu.Lock()
	links := make([]CensusLink, len(a.links))
	copy(links, a.links)
	a.mu.Unlock()
	rep := RunCensus(links)
	rep.Seq = a.seq.Add(1)
	a.last.Store(rep)
	a.runs.Inc()
	return rep
}

// Last returns the most recent report (nil before the first Run).
func (a *Auditor) Last() *CensusReport {
	if a == nil {
		return nil
	}
	return a.last.Load()
}

// Register exposes the auditor on a registry:
//
//	softstate_divergent_keys   divergent keys in the latest census
//	                           (-1 until a census has run)
//	softstate_census_failed_links  links whose latest exchange errored
//	softstate_census_runs_total    censuses executed
func (a *Auditor) Register(r *Registry, labels Labels) {
	if a == nil || r == nil {
		return
	}
	r.GaugeFunc(Opts{
		Name:   "softstate_divergent_keys",
		Help:   "Divergent keys found by the latest convergence census (-1 before the first census).",
		Labels: labels,
	}, func() float64 {
		rep := a.Last()
		if rep == nil {
			return -1
		}
		return float64(rep.Divergent)
	})
	r.GaugeFunc(Opts{
		Name:   "softstate_census_failed_links",
		Help:   "Links whose digest exchange failed in the latest census.",
		Labels: labels,
	}, func() float64 {
		return float64(a.Last().failedOrZero())
	})
	r.RegisterCounter(Opts{
		Name:   "softstate_census_runs_total",
		Help:   "Convergence censuses executed.",
		Labels: labels,
	}, &a.runs)
}

func (r *CensusReport) failedOrZero() int {
	if r == nil {
		return 0
	}
	return r.Failed
}

// ServeHTTP implements the /debug/census endpoint: each GET runs a fresh
// census (the live view) and returns the JSON report.
func (a *Auditor) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	rep := a.Run()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}
