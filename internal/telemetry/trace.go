package telemetry

import (
	"fmt"
	"net"
	"sync"
	"time"

	"softstate/internal/clock"
)

// TraceKind classifies one lifecycle trace event. The kinds cover a key's
// whole life at both endpoint roles: the sender's datagram-level actions
// (trigger, retransmit, refresh, summary, removal, the terminal ack) and
// the receiver's state transitions (install, expiry, orphan, removal).
type TraceKind uint8

// Lifecycle trace kinds.
const (
	// TraceInstall: the receiver created state for the key.
	TraceInstall TraceKind = iota
	// TraceTrigger: the sender transmitted a trigger (install/update).
	TraceTrigger
	// TraceRetransmit: the sender retransmitted an unacked trigger or
	// removal.
	TraceRetransmit
	// TraceAck: the sender saw the ack completing its latest trigger.
	TraceAck
	// TraceRefresh: the sender transmitted a per-key refresh.
	TraceRefresh
	// TraceSummary: the sender transmitted one summary-refresh datagram
	// (Seq carries the key count, Key is empty).
	TraceSummary
	// TraceExpiry: receiver state timed out.
	TraceExpiry
	// TraceOrphan: the hard-state receiver removed probe-dead state.
	TraceOrphan
	// TraceRemoval: state was removed by explicit signaling (either role).
	TraceRemoval
	// TraceHop: a datagram carrying a hop-propagated trace context
	// arrived (Seq carries the hop count).
	TraceHop
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceInstall:
		return "install"
	case TraceTrigger:
		return "trigger"
	case TraceRetransmit:
		return "retransmit"
	case TraceAck:
		return "ack"
	case TraceRefresh:
		return "refresh"
	case TraceSummary:
		return "summary"
	case TraceExpiry:
		return "expiry"
	case TraceOrphan:
		return "orphan"
	case TraceRemoval:
		return "removal"
	case TraceHop:
		return "hop"
	default:
		return "unknown"
	}
}

// TraceEvent is one recorded lifecycle step. All fields are plain values,
// so reflect.DeepEqual across two same-seed virtual runs is the
// determinism check.
type TraceEvent struct {
	// At is the clock offset from the tracer's creation — under a virtual
	// clock, an exact simulated timestamp identical across replays.
	At   time.Duration
	Kind TraceKind
	Key  string
	Seq  uint64
	// Peer is the remote address the event concerns ("" when unknown).
	Peer string
}

// String implements fmt.Stringer.
func (ev TraceEvent) String() string {
	return fmt.Sprintf("%12s %-10s key=%q seq=%d peer=%s",
		ev.At, ev.Kind, ev.Key, ev.Seq, ev.Peer)
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Capacity is the ring size (default 4096). Once full, new events
	// overwrite the oldest; Overwritten counts the loss.
	Capacity int
	// SampleEvery keeps only keys whose hash is ≡ 0 mod SampleEvery
	// (0 and 1 keep every key). Keyless events (summary datagrams) are
	// always kept. Sampling is by key, not by event, so a sampled key's
	// lifecycle stays complete — the property per-step invariant checking
	// needs.
	SampleEvery uint32
	// Clock stamps events (clock.System when nil); pass the run's
	// *clock.Virtual for deterministic traces.
	Clock clock.Clock
}

// Tracer records per-key lifecycle events into a fixed-size ring buffer.
// A nil *Tracer records nothing, so the protocol layers call Record
// unconditionally; when tracing is off the cost is one predictable
// branch. Recording allocates nothing beyond the peer-address string.
type Tracer struct {
	clk    clock.Clock
	born   time.Time
	sample uint32

	mu      sync.Mutex
	ring    []TraceEvent
	next    int // write cursor
	wrapped bool
	dropped uint64
}

// NewTracer creates a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	clk := clock.Or(cfg.Clock)
	return &Tracer{
		clk:    clk,
		born:   clk.Now(),
		sample: cfg.SampleEvery,
		ring:   make([]TraceEvent, cfg.Capacity),
	}
}

// Sampled reports whether events for key would be recorded — the
// predicate the signaling layer uses to decide whether to stamp an
// outgoing datagram with a trace context, so wire-level trace sampling
// follows the tracer's own by-key sampling. Nil-safe: a nil tracer
// samples nothing.
func (t *Tracer) Sampled(key string) bool {
	if t == nil {
		return false
	}
	return t.sample <= 1 || key == "" || keyHash(key)%t.sample == 0
}

// keyHash is FNV-1a, inlined so the tracer needs no other runtime
// package.
func keyHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Record captures one lifecycle event. Safe on a nil receiver and from
// any goroutine (including under state-table shard locks: the tracer
// mutex is a leaf).
func (t *Tracer) Record(kind TraceKind, key string, seq uint64, peer net.Addr) {
	if t == nil {
		return
	}
	if t.sample > 1 && key != "" && keyHash(key)%t.sample != 0 {
		return
	}
	ev := TraceEvent{At: t.clk.Since(t.born), Kind: kind, Key: key, Seq: seq}
	if peer != nil {
		ev.Peer = peer.String()
	}
	t.mu.Lock()
	if t.wrapped {
		t.dropped++
	}
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]TraceEvent, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]TraceEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrapped {
		return len(t.ring)
	}
	return t.next
}

// Overwritten reports how many events the ring has dropped to make room.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// KindCounts tallies the retained events per kind — the digest demos and
// replay checks print.
func (t *Tracer) KindCounts() map[TraceKind]int {
	out := make(map[TraceKind]int)
	for _, ev := range t.Events() {
		out[ev.Kind]++
	}
	return out
}
