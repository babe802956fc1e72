package telemetry

import (
	"sync"
	"time"

	"softstate/internal/clock"
)

// PaperMetrics computes the source paper's two figure axes as live,
// continuously-updated properties of a running endpoint:
//
//   - Inconsistency — the fraction of (key, time) the remote end's view
//     is known or presumed wrong, the live counterpart of the paper's I
//     metric (eq. 1). It is assembled from what an endpoint can actually
//     observe: on ack-bearing variants (SS+RT, SS+RTR, HS), a key is
//     inconsistent from each trigger until its ack; on every variant, the
//     gap between a state loss the protocol noticed (expiry, orphan
//     detection, false removal) and the repair that re-installed it
//     counts in full once the repair is observed. Windows no variant can
//     observe (a lost refresh on pure SS) do not count, so on ack-less
//     variants the estimate is a lower bound — exactly the visibility the
//     paper says those protocols give up.
//   - Rate — signaling datagrams per key per second, the live Λ: the
//     endpoint's cumulative datagram count over its cumulative key-time.
//
// Feed it from a signal endpoint's event stream (Config.OnEvent) via the
// On* methods; keys from different peers should be qualified by the
// caller (peer + key) so fan-out nodes do not alias. All methods are safe
// for concurrent use and on a nil receiver.
type PaperMetrics struct {
	clk  clock.Clock
	born time.Time
	ack  bool         // triggers stay inconsistent until acked
	sent func() int64 // cumulative datagram supplier for Rate

	mu      sync.Mutex
	live    map[string]struct{}
	pending map[string]window
	ackOpen int           // open ack windows (accrue continuously)
	lastAt  time.Duration // last integral update
	keyTime float64       // ∫ live keys dt, in key-seconds
	badTime float64       // ∫ inconsistent keys dt, in key-seconds
}

// repairWindow caps how long after a state loss a re-install still counts
// the gap as inconsistency. Losses never repaired within it are presumed
// intended removals and contribute nothing.
const repairWindow = 30 * time.Second

// window is one open inconsistency interval.
type window struct {
	openedAt time.Duration
	// repair windows (state loss awaiting re-install) contribute only
	// when closed by a repair; ack windows accrue while open.
	repair bool
}

// PaperConfig parameterizes a PaperMetrics collector.
type PaperConfig struct {
	// Clock is the endpoint's time source (clock.System when nil).
	Clock clock.Clock
	// AckExpected marks variants with reliable triggers: an installed key
	// counts as inconsistent until its ack arrives. Leave false on
	// ack-less variants and on receiver-side collectors (where an install
	// event means the state is already consistent).
	AckExpected bool
	// Sent supplies the endpoint's cumulative signaling datagram count
	// (sent + received is the usual choice) for the Rate gauge.
	Sent func() int64
}

// NewPaperMetrics creates a collector.
func NewPaperMetrics(cfg PaperConfig) *PaperMetrics {
	clk := clock.Or(cfg.Clock)
	return &PaperMetrics{
		clk:     clk,
		born:    clk.Now(),
		ack:     cfg.AckExpected,
		sent:    cfg.Sent,
		live:    make(map[string]struct{}),
		pending: make(map[string]window),
	}
}

// advance accrues the integrals up to now; callers hold p.mu.
func (p *PaperMetrics) advance(now time.Duration) {
	if dt := (now - p.lastAt).Seconds(); dt > 0 {
		p.keyTime += float64(len(p.live)) * dt
		p.badTime += float64(p.ackOpen) * dt
		p.lastAt = now
	}
}

// OnInstall records that the key was installed, updated, or repaired. If
// a loss window was open for it, the repair gap is banked; on
// ack-expecting variants a fresh ack window opens.
func (p *PaperMetrics) OnInstall(key string) {
	if p == nil {
		return
	}
	now := p.clk.Since(p.born)
	p.mu.Lock()
	p.advance(now)
	if w, ok := p.pending[key]; ok {
		if w.repair {
			if gap := now - w.openedAt; gap <= repairWindow {
				p.badTime += gap.Seconds()
			}
			delete(p.pending, key)
		}
		// An open ack window stays open: a re-trigger before the ack is
		// still the same inconsistent interval.
	}
	p.live[key] = struct{}{}
	if p.ack {
		if w, open := p.pending[key]; !open || w.repair {
			p.pending[key] = window{openedAt: now}
			p.ackOpen++
		}
	}
	p.mu.Unlock()
}

// OnAck records that the key's latest trigger was acknowledged.
func (p *PaperMetrics) OnAck(key string) {
	if p == nil {
		return
	}
	now := p.clk.Since(p.born)
	p.mu.Lock()
	p.advance(now)
	if w, ok := p.pending[key]; ok && !w.repair {
		delete(p.pending, key)
		p.ackOpen--
	}
	p.mu.Unlock()
}

// OnRemove records that the key was deliberately removed (or given up
// on): it stops accruing key-time and any open window closes unbanked.
func (p *PaperMetrics) OnRemove(key string) {
	if p == nil {
		return
	}
	now := p.clk.Since(p.born)
	p.mu.Lock()
	p.advance(now)
	delete(p.live, key)
	if w, ok := p.pending[key]; ok {
		if !w.repair {
			p.ackOpen--
		}
		delete(p.pending, key)
	}
	p.mu.Unlock()
}

// OnLost records a state loss the protocol noticed — expiry, orphan
// detection, a false removal signal. The key stays in the key-time base
// (its owner still intends it) and a repair window opens: if a re-install
// follows within repairWindow, the whole gap counts as inconsistency.
func (p *PaperMetrics) OnLost(key string) {
	if p == nil {
		return
	}
	now := p.clk.Since(p.born)
	p.mu.Lock()
	p.advance(now)
	if w, ok := p.pending[key]; ok && !w.repair {
		p.ackOpen--
	}
	p.pending[key] = window{openedAt: now, repair: true}
	p.mu.Unlock()
}

// read advances the integrals and prunes repair windows too old to ever
// count, then returns the current readings.
func (p *PaperMetrics) read() (inconsistency, keyTime float64, live int) {
	now := p.clk.Since(p.born)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	for k, w := range p.pending {
		if w.repair && now-w.openedAt > repairWindow {
			// Presumed intended removal: the gap never counts as
			// inconsistency, and the key-time accrued since the loss is
			// backed out of the base (the key was not really live).
			p.keyTime -= (now - w.openedAt).Seconds()
			delete(p.pending, k)
			delete(p.live, k)
		}
	}
	if p.keyTime <= 0 {
		return 0, 0, len(p.live)
	}
	return p.badTime / p.keyTime, p.keyTime, len(p.live)
}

// Inconsistency returns the live estimate of the paper's I metric.
func (p *PaperMetrics) Inconsistency() float64 {
	if p == nil {
		return 0
	}
	i, _, _ := p.read()
	return i
}

// Rate returns the live estimate of the paper's Λ metric: cumulative
// signaling datagrams over cumulative key-seconds.
func (p *PaperMetrics) Rate() float64 {
	if p == nil || p.sent == nil {
		return 0
	}
	_, keyTime, _ := p.read()
	if keyTime <= 0 {
		return 0
	}
	return float64(p.sent()) / keyTime
}

// LiveKeys returns the number of keys currently accruing key-time.
func (p *PaperMetrics) LiveKeys() int {
	if p == nil {
		return 0
	}
	_, _, live := p.read()
	return live
}

// Register exposes the collector's gauges on r under the given labels —
// the paper's figure metrics as scrapeable series.
func (p *PaperMetrics) Register(r *Registry, labels Labels) {
	if p == nil {
		return
	}
	r.GaugeFunc(Opts{
		Name:   "softstate_inconsistency_ratio",
		Help:   "Live estimate of the paper's I metric: observed inconsistent key-time over total key-time.",
		Labels: labels,
	}, p.Inconsistency)
	r.GaugeFunc(Opts{
		Name:   "softstate_datagrams_per_key_per_s",
		Help:   "Live estimate of the paper's signaling overhead: datagrams per key per second.",
		Labels: labels,
	}, p.Rate)
	r.GaugeFunc(Opts{
		Name:   "softstate_paper_live_keys",
		Help:   "Keys currently accruing key-time in the paper-metric integrals.",
		Labels: labels,
	}, func() float64 { return float64(p.LiveKeys()) })
}
