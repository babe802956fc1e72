// Package signal is a runnable implementation of the paper's five generic
// signaling protocols over any net.PacketConn: a Sender that installs,
// refreshes, updates, and removes keyed state at a remote Receiver, with
// the mechanism set (refresh, state timeout, explicit removal, reliable
// trigger/removal, removal notification) selected by the protocol.
//
// By default it runs in real time, making it usable as an actual
// soft-state signaling library (IGMP-style membership, RSVP-style
// reservations, P2P registrations) and as a live demonstration of the
// paper's mechanisms over UDP (see examples/livewire); given a virtual
// Config.Clock the same code is internal/sim's experiment engine.
//
// Both endpoints keep their keys in an internal/statetable sharded table:
// every refresh, retransmit, and state-timeout deadline is multiplexed
// onto one hierarchical timing wheel per shard, so an endpoint scales to
// millions of keys with no per-key time.Timer and no goroutine beyond
// its read loops. With Config.SummaryRefresh the sender additionally
// batches refreshes RFC 2961-style: one summary datagram renews up to
// SummaryMaxKeys keys, and receivers NACK unknown keys so the sender
// falls back to full triggers.
package signal

import (
	"net"
	"time"

	"softstate/internal/clock"
	"softstate/internal/singlehop"
	"softstate/internal/telemetry"
	"softstate/internal/variant"
	"softstate/internal/wire"
)

// Protocol aliases the paper's protocol identifiers.
type Protocol = singlehop.Protocol

// The five generic protocols.
const (
	SS    = singlehop.SS
	SSER  = singlehop.SSER
	SSRT  = singlehop.SSRT
	SSRTR = singlehop.SSRTR
	HS    = singlehop.HS
)

// Config carries the timer settings shared by both endpoint roles.
type Config struct {
	// Protocol selects the mechanism bundle.
	Protocol Protocol
	// Variant, when non-nil, overrides the mechanism bundle derived from
	// Protocol with an explicit variant.Profile — the one knob that
	// switches the live stack between the paper's five protocols (or a
	// custom mechanism mix). Nil derives variant.For(Protocol).
	Variant *variant.Profile
	// RefreshInterval is the soft-state refresh timer R.
	RefreshInterval time.Duration
	// Timeout is the receiver's state-timeout timer T. The paper's
	// guidance (Fig 8a) is T ≈ 3R.
	Timeout time.Duration
	// Retransmit is the retransmission timer Γ for reliable messages: the
	// delay before the first retransmission.
	Retransmit time.Duration
	// RetransmitBackoff multiplies the retransmission delay after every
	// unacked attempt (exponential backoff; default 2, values below 1 are
	// clamped to 1 for the paper's constant-Γ behavior).
	RetransmitBackoff float64
	// RetransmitMax caps the backed-off retransmission delay (default
	// 16×Retransmit).
	RetransmitMax time.Duration
	// MaxRetransmits bounds retransmission attempts per message; 0 means
	// retry forever (the paper's model). Bounding is an extension for
	// deployments that must detect dead peers.
	MaxRetransmits int
	// ProbeInterval is the hard-state receiver's probe-round period: how
	// often it asks each sender holding state there for proof of life, one
	// probe per sender whatever its key count (default Timeout, so
	// hard-state cleanup reacts on the same scale soft state would). While
	// a sender's key set disagrees with the receiver's, the rounds also
	// probe that sender's keys one by one.
	ProbeInterval time.Duration
	// MaxProbeMisses is how many consecutive unanswered rounds declare a
	// sender dead and orphan all its state, and how many unanswered per-key
	// probes orphan a key the sender no longer owns (default 3). A dead
	// sender's state is therefore gone ≈ (MaxProbeMisses+1)×ProbeInterval
	// after its last answer.
	MaxProbeMisses int
	// PeerIdleTimeout, when positive, evicts sender sessions that have
	// held no table entries (no live or removing keys) and seen no
	// activity for this long, bounding the per-destination peer table
	// under churn. Keep it well above Timeout so a silently departed
	// peer's receiver-side state expires before its session is recycled.
	// An evicted peer's sequence space is retired and resumed if the peer
	// returns within a few further idle periods (after which the bookmark
	// is pruned — safe, since the receiver-side state is long gone by
	// then). 0 keeps sessions forever.
	PeerIdleTimeout time.Duration
	// MaxRefreshRate, when positive, bounds the sender's aggregate
	// refresh traffic to this many refreshes per second by stretching the
	// per-key refresh interval once the key count exceeds
	// MaxRefreshRate·RefreshInterval — Sharma et al.'s "scalable timers
	// for soft state protocols" (paper ref [16]). Receivers should size
	// their Timeout for the stretched interval or run the same rule.
	MaxRefreshRate float64
	// Shards is the state-table shard count (rounded up to a power of
	// two; the statetable default when 0). Each shard has its own lock
	// and timing-wheel timer, so this bounds both lock contention and
	// timer parallelism.
	Shards int
	// SummaryRefresh, on a sender, replaces per-key refresh messages with
	// periodic summary datagrams that each renew up to SummaryMaxKeys
	// keys (RFC 2961-style refresh reduction). Receivers always accept
	// summary refreshes regardless of this setting.
	SummaryRefresh bool
	// SummaryMaxKeys caps the keys per summary datagram (default 64,
	// bounded by wire.MaxSummaryKeys and the datagram byte budget).
	SummaryMaxKeys int
	// CoalesceAcks, on a receiver, batches ACK and removal-ACK replies
	// into one ack-batch datagram per peer per flush tick instead of one
	// datagram per acknowledgement — the reply-path mirror of summary
	// refresh. Senders always accept ack batches regardless of this
	// setting.
	CoalesceAcks bool
	// AckFlushInterval is the coalescing flush period (default 2 ms, two
	// state-table ticks). Keep it well under Retransmit, or held-back acks
	// will trigger spurious retransmissions.
	AckFlushInterval time.Duration
	// Clock is the time source for every endpoint deadline — state-table
	// wheels, summary sweeps, idle reaps, ack flushes (clock.System when
	// nil). All periodic work is clock timer callbacks under any clock:
	// goroutines of their own under clock.System, events on the
	// simulation driver, in deterministic order, under a *clock.Virtual
	// (pass the same clock in the transport's lossy.Config) — which is
	// how internal/sim runs the paper's experiments on this exact code
	// path.
	Clock clock.Clock
	// OnEvent, when set, is called synchronously for every event before
	// it is offered to the Events channel — unlike the channel, it never
	// drops. It runs on protocol goroutines, sometimes with a state-table
	// shard locked: it must not block and must not call back into the
	// endpoint that emitted it (calling into *other* endpoints, as a
	// relay does, is fine).
	OnEvent func(Event)
	// Metrics, when non-nil, registers the endpoint's instruments —
	// datagram counters per wire type, lifecycle latency histograms
	// (install→ack, removal propagation, refresh jitter), occupancy and
	// wheel-depth gauges — on this registry. A nil registry costs the hot
	// path nothing beyond the same atomic increments it always paid: the
	// counters below are registry instruments either way.
	Metrics *telemetry.Registry
	// MetricsLabels are constant labels stamped on every instrument this
	// endpoint registers (typically protocol and role; role is added
	// automatically when absent).
	MetricsLabels telemetry.Labels
	// Trace, when non-nil, receives a lifecycle trace event at every
	// per-key protocol step (install, trigger, retransmit, ack, refresh,
	// summary, expiry, orphan, removal). Under a virtual clock the
	// recorded stream is deterministic across same-seed runs. A nil
	// tracer costs one predictable branch per step.
	//
	// With a tracer set, senders additionally stamp the tracer-sampled
	// keys' triggers and refreshes with a hop-propagated wire trace
	// context (wire.VersionExt frames): receivers turn the stamps into
	// per-hop and end-to-end propagation histograms, and relays
	// propagate the context downstream so a key's install latency is
	// measured across the whole chain. Sampling follows
	// Tracer.Sampled, so Config.Trace with TracerConfig.SampleEvery is
	// the one knob for both the ring and the wire overhead.
	Trace *telemetry.Tracer
}

// DefaultConfig returns the paper's deployed-protocol defaults: R = 5 s,
// T = 3R, Γ = 120 ms (4× a 30 ms one-way delay).
func DefaultConfig(proto Protocol) Config {
	return Config{
		Protocol:        proto,
		RefreshInterval: 5 * time.Second,
		Timeout:         15 * time.Second,
		Retransmit:      120 * time.Millisecond,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Protocol)
	if c.Variant == nil {
		p := variant.For(c.Protocol)
		c.Variant = &p
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = d.RefreshInterval
	}
	if c.Timeout <= 0 {
		c.Timeout = 3 * c.RefreshInterval
	}
	if c.Retransmit <= 0 {
		c.Retransmit = d.Retransmit
	}
	if c.RetransmitBackoff == 0 {
		c.RetransmitBackoff = 2
	}
	if c.RetransmitBackoff < 1 {
		c.RetransmitBackoff = 1
	}
	if c.RetransmitMax <= 0 {
		c.RetransmitMax = 16 * c.Retransmit
	}
	if c.RetransmitMax < c.Retransmit {
		c.RetransmitMax = c.Retransmit
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = c.Timeout
	}
	if c.MaxProbeMisses <= 0 {
		c.MaxProbeMisses = 3
	}
	if c.SummaryMaxKeys <= 0 {
		c.SummaryMaxKeys = 64
	}
	if c.SummaryMaxKeys > wire.MaxSummaryKeys {
		c.SummaryMaxKeys = wire.MaxSummaryKeys
	}
	if c.AckFlushInterval <= 0 {
		c.AckFlushInterval = 2 * time.Millisecond
	}
	return c
}

// EventKind classifies runtime events.
type EventKind int

// Runtime event kinds.
const (
	// EventInstalled: state newly installed (receiver) or first sent
	// (sender).
	EventInstalled EventKind = iota
	// EventUpdated: state value changed.
	EventUpdated
	// EventRemoved: state removed by explicit signaling.
	EventRemoved
	// EventExpired: receiver state removed by state-timeout.
	EventExpired
	// EventFalseRemoval: receiver state removed by an external signal
	// (hard-state false removal injection).
	EventFalseRemoval
	// EventRepaired: sender re-installed state after a removal notice.
	EventRepaired
	// EventAcked: sender received the ACK for its latest trigger.
	EventAcked
	// EventGaveUp: retransmission limit reached.
	EventGaveUp
	// EventOrphaned: hard-state receiver removed state whose sender
	// stopped answering liveness probes (presumed dead).
	EventOrphaned
)

var eventKindNames = [...]string{"installed", "updated", "removed", "expired",
	"false-removal", "repaired", "acked", "gave-up", "orphaned"}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventKindNames) {
		return "unknown"
	}
	return eventKindNames[k]
}

// Event is one observability record.
type Event struct {
	Kind  EventKind
	Key   string
	Value []byte
	Seq   uint64
	// Peer is the remote endpoint the event concerns: the session peer on
	// a sender, the datagram source on a receiver. May be nil for events
	// without a peer (e.g. receiver expiry of state whose sender address
	// was never learned).
	Peer net.Addr
	// Trace is the hop-propagated trace context carried by the datagram
	// that caused the event (zero when untraced). Relays forward it
	// downstream via Session.InstallCtx, so the origin stamp survives
	// the whole chain.
	Trace wire.TraceContext
}

// Stats counts runtime message activity.
type Stats struct {
	// Sent counts datagrams written, by wire type name.
	Sent map[string]int
	// Received counts datagrams accepted, by wire type name.
	Received map[string]int
	// DecodeErrors counts datagrams rejected by the codec.
	DecodeErrors int
	// CoalescedAcks counts individual acknowledgements carried inside
	// ack-batch datagrams: items batched on a coalescing receiver, items
	// unpacked on a sender. Compare with Sent["ack-batch"] (or
	// Received["ack-batch"]) for the reply-datagram reduction.
	CoalescedAcks int
	// SummaryRenewals counts the keys a receiver found while absorbing
	// summary refreshes, and SummaryIndexLookups the summary keys it looked
	// up through the state table's index: every key, unknown ones included,
	// of a datagram from a known peer that no lease answered. In steady
	// state the second stays flat while the first grows by one per key per
	// refresh interval; their ratio is the share of renewals that left the
	// fast path. SummaryLeasedKeys counts the renewals among the first that
	// walked nothing at all: keys of datagrams that extended a datagram lease.
	// Its ratio to SummaryRenewals is the receiver's lease share, close to 1
	// while its senders' key sets hold still. SummaryLeaseLookups counts the
	// summary datagrams whose lease had to be looked up by the fold of their
	// key list because they did not come in the last sweep's order: 0 in
	// steady state. SummaryFoldMismatches counts the summary datagrams whose
	// keys were all found but whose fold disagreed with the fold of the
	// entries found: some entry holds another version than the sender's, so
	// they renewed nothing and were NACKed whole. All five stay 0 on a
	// sender.
	SummaryRenewals       int
	SummaryIndexLookups   int
	SummaryLeasedKeys     int
	SummaryLeaseLookups   int
	SummaryFoldMismatches int
	// SummaryFramesSent counts the summary datagrams a sender's sweeps queued
	// from its sessions' cached frames, SummaryFramesEncoded the frames it
	// encoded because a session's keys, or the version of one, had changed:
	// flat in steady state. Both stay 0 on a receiver.
	SummaryFramesSent    int
	SummaryFramesEncoded int
	// ProbeAudits counts, on a hard-state receiver, the (sender, probe
	// round) pairs that probed key by key because the sender's pair had
	// disagreed with the receiver's. Against the rounds' one peer probe
	// per sender it is the share of rounds that left the fast path. 0
	// elsewhere.
	ProbeAudits int
}

// TotalSent sums sent datagrams across types.
func (s Stats) TotalSent() int {
	n := 0
	for _, v := range s.Sent {
		n += v
	}
	return n
}

// counters is the internal, contention-free form of Stats: one atomic
// slot per wire type, indexed by the type value, so shards never share a
// stats lock. The slots are telemetry.Counter — value-embedded atomics,
// exactly as cheap as the bare atomic.Int64 they replaced — so an
// endpoint given a Config.Metrics registry exposes them as Prometheus
// series without a second set of increments.
type counters struct {
	sent          [wire.NumTypes]telemetry.Counter
	received      [wire.NumTypes]telemetry.Counter
	decodeErrors  telemetry.Counter
	coalescedAcks telemetry.Counter
	// Receiver only, added to once per summary datagram (Stats has the
	// definitions).
	summaryRenewals       telemetry.Counter
	summaryIndexLookups   telemetry.Counter
	summaryLeased         telemetry.Counter
	summaryLeaseLookups   telemetry.Counter
	summaryFoldMismatches telemetry.Counter
	// Sender only, added to once per sweep.
	summaryFramesSent    telemetry.Counter
	summaryFramesEncoded telemetry.Counter
	// Hard-state receiver only, added to once per audited sender per round.
	probeAudits telemetry.Counter
}

// typeNames is the sorted-once key set snapshot() reuses: wire type names
// are static, so rendering t.String() per type per snapshot (and the
// garbage of rebuilding it) was pure waste on a stats-polling hot loop.
var typeNames = func() (names [wire.NumTypes]string) {
	for t := wire.TypeTrigger; int(t) < wire.NumTypes; t++ {
		names[t] = t.String()
	}
	return
}()

func (c *counters) snapshot() Stats {
	out := Stats{Sent: make(map[string]int), Received: make(map[string]int)}
	for t := 0; t < wire.NumTypes; t++ {
		if n := c.sent[t].Value(); n > 0 {
			out.Sent[typeNames[t]] = int(n)
		}
		if n := c.received[t].Value(); n > 0 {
			out.Received[typeNames[t]] = int(n)
		}
	}
	out.DecodeErrors = int(c.decodeErrors.Value())
	out.CoalescedAcks = int(c.coalescedAcks.Value())
	out.SummaryRenewals = int(c.summaryRenewals.Value())
	out.SummaryIndexLookups = int(c.summaryIndexLookups.Value())
	out.SummaryLeasedKeys = int(c.summaryLeased.Value())
	out.SummaryLeaseLookups = int(c.summaryLeaseLookups.Value())
	out.SummaryFoldMismatches = int(c.summaryFoldMismatches.Value())
	out.SummaryFramesSent = int(c.summaryFramesSent.Value())
	out.SummaryFramesEncoded = int(c.summaryFramesEncoded.Value())
	out.ProbeAudits = int(c.probeAudits.Value())
	return out
}

// total sums one direction's counters across wire types — the cheap
// supplier behind the paper-metric Rate gauge and the datagram totals
// snapshot dumps print.
func total(cs *[wire.NumTypes]telemetry.Counter) (n int64) {
	for t := range cs {
		n += cs[t].Value()
	}
	return n
}

// register exposes every slot on r under the endpoint's constant labels,
// one series per wire type actually used by the protocol machinery.
func (c *counters) register(r *telemetry.Registry, labels telemetry.Labels) {
	if r == nil {
		return
	}
	for t := 0; t < wire.NumTypes; t++ {
		tl := withLabel(labels, "type", typeNames[t])
		r.RegisterCounter(telemetry.Opts{
			Name:   "softstate_datagrams_sent_total",
			Help:   "Signaling datagrams written, by wire type.",
			Labels: tl,
		}, &c.sent[t])
		r.RegisterCounter(telemetry.Opts{
			Name:   "softstate_datagrams_received_total",
			Help:   "Signaling datagrams accepted, by wire type.",
			Labels: tl,
		}, &c.received[t])
	}
	r.RegisterCounter(telemetry.Opts{
		Name:   "softstate_decode_errors_total",
		Help:   "Datagrams rejected by the wire codec.",
		Labels: labels,
	}, &c.decodeErrors)
	r.RegisterCounter(telemetry.Opts{
		Name:   "softstate_coalesced_acks_total",
		Help:   "Individual acknowledgements carried inside ack-batch datagrams.",
		Labels: labels,
	}, &c.coalescedAcks)
}

// withLabel copies labels and adds one dimension.
func withLabel(labels telemetry.Labels, name, value string) telemetry.Labels {
	out := make(telemetry.Labels, len(labels)+1)
	for k, v := range labels {
		out[k] = v
	}
	out[name] = value
	return out
}

// metricsLabelsFor returns cfg's constant labels with the endpoint role
// filled in (existing labels win over the defaults).
func metricsLabelsFor(cfg Config, role string) telemetry.Labels {
	out := telemetry.Labels{"role": role, "protocol": cfg.Variant.Name}
	for k, v := range cfg.MetricsLabels {
		out[k] = v
	}
	return out
}
