// Package chaos is the adversarial scenario engine: it turns arbitrary
// byte strings into stateful adversarial sequences against a live
// sender/receiver pair (the sequence fuzzer below), and single seeds into
// full failure campaigns against a multi-hop chain (campaign.go). Both
// halves run the real runtime under the virtual clock, so every
// adversarial interleaving is deterministic and byte-replayable from its
// input alone — a fuzzer crash reproduces from its corpus entry, a
// campaign anomaly from its seed.
//
// The sequence fuzzer decodes fuzz bytes into a mutation grammar (two
// bytes per op: opcode, argument) mixing legitimate API calls with the
// man-in-the-middle mutations a hostile or broken network can produce:
//
//	advance    run the virtual clock 1–32 ms
//	install    install a pool key with a fresh generation value
//	update     update a pool key
//	remove     withdraw a pool key
//	duplicate  re-deliver the most recent captured datagram verbatim
//	replay     re-deliver an arbitrary historical datagram (stale seq)
//	hold       buffer outbound datagrams instead of forwarding them
//	release    flush the buffer in reverse order (reordering)
//	splice     deliver a second session's datagram as if the first sent it
//	truncate   deliver a prefix of the last datagram (framing damage)
//	typeflip   re-encode the last key/value datagram with trigger↔refresh
//	           swapped (re-checksummed, so it decodes cleanly)
//	garbage    deliver bytes that never were a datagram
//
// After every op the engine audits the structural invariants both
// endpoints export (signal.CheckInvariants), that no source's accepted
// sequence number moved backward, and that the receiver's lifecycle
// events balance its table occupancy. After the trace it releases any
// held traffic, quiesces well past every repair horizon, and captures the
// surviving state for differential comparison across variants.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/signal"
	"softstate/internal/variant"
	"softstate/internal/wire"
)

// OpKind is one opcode of the mutation grammar.
type OpKind byte

// The mutation grammar. Order is part of the corpus format: appending new
// ops keeps old corpus entries meaningful, reordering does not.
const (
	OpAdvance OpKind = iota
	OpInstall
	OpUpdate
	OpRemove
	OpDuplicate
	OpReplay
	OpHold
	OpRelease
	OpSplice
	OpTruncate
	OpTypeFlip
	OpGarbage
	numOps
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	names := [...]string{"advance", "install", "update", "remove", "duplicate",
		"replay", "hold", "release", "splice", "truncate", "typeflip", "garbage"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", byte(k))
}

// Op is one decoded step: an opcode and its argument byte (key selector,
// history index, clock step — opcode-dependent).
type Op struct {
	Kind OpKind
	Arg  byte
}

// Engine limits: the trace length bound keeps one fuzz execution cheap,
// the hold budget models a bounded reordering buffer (an unbounded one
// could silence probe replies long enough to orphan healthy hard state,
// which is a network that died, not one that reorders), and the history
// cap bounds replay memory.
const (
	maxOps         = 96
	poolSize       = 8
	holdBudget     = 60 * time.Millisecond
	maxHistory     = 512
	chaosRefresh   = 30 * time.Millisecond
	chaosTimeout   = 90 * time.Millisecond
	chaosRetx      = 10 * time.Millisecond
	chaosLinkDelay = time.Millisecond
)

// Protocols lists the five variants in canonical order; a fuzz input's
// first byte mod 10 selects one, and with it how refreshes and acks travel
// (runTrace).
var Protocols = []signal.Protocol{signal.SS, signal.SSER, signal.SSRT, signal.SSRTR, signal.HS}

// decodeTrace maps fuzz bytes onto the op grammar: two bytes per op,
// opcode mod numOps, capped at maxOps. Every byte string is a valid
// trace, so the fuzzer wastes no executions on parse rejects.
func decodeTrace(data []byte) []Op {
	ops := make([]Op, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(ops) < maxOps; i += 2 {
		ops = append(ops, Op{Kind: OpKind(data[i] % byte(numOps)), Arg: data[i+1]})
	}
	return ops
}

// PoolKey names workload key i of the fuzzer's fixed key pool.
func PoolKey(i int) string { return fmt.Sprintf("k%d", i%poolSize) }

// frame is one captured outbound datagram with enough decoded metadata to
// target mutations.
type frame struct {
	raw []byte
	typ wire.Type
	key string
}

// captureConn wraps a sender's packet conn: every outbound datagram is
// recorded (the replay/mutation history) and, while holding, buffered
// instead of forwarded. Mutations inject through the inner conn directly,
// so injected traffic is not re-captured.
type captureConn struct {
	net.PacketConn

	mu      sync.Mutex
	frames  []frame
	held    [][]byte
	holdDst net.Addr
	holding bool
}

func (c *captureConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	cp := append([]byte(nil), p...)
	f := frame{raw: cp}
	var m wire.Message
	if err := m.UnmarshalBinary(cp); err == nil {
		f.typ, f.key = m.Type, m.Key
	}
	c.mu.Lock()
	if len(c.frames) < maxHistory {
		c.frames = append(c.frames, f)
	}
	if c.holding {
		c.held = append(c.held, cp)
		c.holdDst = addr
		c.mu.Unlock()
		return len(p), nil
	}
	c.mu.Unlock()
	return c.PacketConn.WriteTo(p, addr)
}

// hold starts buffering; release forwards the buffer in reverse order —
// a full reordering of everything the sender said in the window.
func (c *captureConn) hold() {
	c.mu.Lock()
	c.holding = true
	c.mu.Unlock()
}

func (c *captureConn) release() {
	c.mu.Lock()
	held, dst := c.held, c.holdDst
	c.held, c.holding = nil, false
	c.mu.Unlock()
	for i := len(held) - 1; i >= 0; i-- {
		c.PacketConn.WriteTo(held[i], dst) //nolint:errcheck // lossy network semantics
	}
}

func (c *captureConn) history() []frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]frame(nil), c.frames...)
}

// Result is one engine run's full record.
type Result struct {
	// Protocol is the variant the run exercised.
	Protocol string
	// Steps is the number of ops applied.
	Steps int
	// Violations collects every invariant violation any per-step or final
	// audit found, prefixed with the step that found it.
	Violations []string
	// Intent is the primary sender's live keys and values at trace end —
	// what the application believes is installed.
	Intent map[string][]byte
	// Survivor is the receiver's post-quiesce state attributed to the
	// primary sender, pool keys only.
	Survivor map[string][]byte
	// Spliced marks pool keys touched by cross-session splice injections
	// — the keys on which a hard-state receiver may permanently diverge,
	// since nothing ever expires or overwrites the forged install.
	Spliced map[string]bool
	// DecodeErrors is the receiver's rejected-datagram count — evidence
	// the truncation/garbage ops actually exercised the codec.
	DecodeErrors int
}

// engine is one live adversarial run: a primary sender, a second sender
// (the splice source), and one receiver on a clean virtual-time network
// where the grammar's mutations are the only adversary.
type engine struct {
	v    *clock.Virtual
	snd  *signal.Sender
	snd2 *signal.Sender
	rcv  *signal.Receiver
	cap  *captureConn
	cap2 *captureConn

	sndAddr net.Addr
	rcvAddr net.Addr
	prof    variant.Profile

	mu        sync.Mutex
	installs  int
	drops     int
	touched   map[string]bool
	anonEvent bool

	prevSeq   map[string]uint64
	heldSince time.Duration
	gen       int
	res       *Result
}

// runTrace executes one decoded trace against variant profileIdx and returns
// the full record: 0–4 index Protocols with per-key refreshes and acks, 5–9
// are the same five with summary refreshes and coalesced acks. Same inputs,
// same Result.
func runTrace(profileIdx int, ops []Op) (*Result, error) {
	proto := Protocols[profileIdx%len(Protocols)]
	summary := profileIdx/len(Protocols)%2 == 1
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: chaosLinkDelay, Seed: 1, Clock: v})
	if err != nil {
		return nil, err
	}
	cfg := signal.Config{
		Protocol:        proto,
		RefreshInterval: chaosRefresh,
		Timeout:         chaosTimeout,
		Retransmit:      chaosRetx,
		SummaryRefresh:  summary,
		CoalesceAcks:    summary,
		Clock:           v,
	}
	e := &engine{
		v:       v,
		prof:    variant.For(proto),
		touched: make(map[string]bool),
		prevSeq: make(map[string]uint64),
		res: &Result{
			Protocol: proto.String(),
			Intent:   make(map[string][]byte),
			Survivor: make(map[string][]byte),
			Spliced:  make(map[string]bool),
		},
	}
	rcfg := cfg
	rcfg.OnEvent = e.onReceiverEvent

	e.cap = &captureConn{PacketConn: nw.Endpoint("snd")}
	e.cap2 = &captureConn{PacketConn: nw.Endpoint("snd2")}
	rconn := nw.Endpoint("rcv")
	e.sndAddr = e.cap.LocalAddr()
	e.rcvAddr = rconn.LocalAddr()

	e.rcv, err = signal.NewReceiver(rconn, rcfg)
	if err != nil {
		return nil, err
	}
	defer e.rcv.Close()
	e.snd, err = signal.NewSender(e.cap, e.rcvAddr, cfg)
	if err != nil {
		return nil, err
	}
	defer e.snd.Close()
	e.snd2, err = signal.NewSender(e.cap2, e.rcvAddr, cfg)
	if err != nil {
		return nil, err
	}
	defer e.snd2.Close()

	// Scripted second session: installs the whole pool (distinct values),
	// withdraws half. Its capture history is the splice arsenal — live
	// installs, refreshes, and removals under foreign sequence numbers.
	for k := 0; k < poolSize; k++ {
		e.snd2.Install(PoolKey(k), []byte(fmt.Sprintf("w%d", k))) //nolint:errcheck
	}
	v.Run(20 * time.Millisecond)
	for k := poolSize / 2; k < poolSize; k++ {
		e.snd2.Remove(PoolKey(k)) //nolint:errcheck
	}
	v.Run(20 * time.Millisecond)

	for i, op := range ops {
		e.apply(op)
		e.settle()
		e.audit(fmt.Sprintf("step %d (%s)", i, op.Kind))
		e.res.Steps++
	}
	e.finish()
	return e.res, nil
}

// onReceiverEvent tallies the receiver's lifecycle stream synchronously
// (never dropped, unlike the channel): installs against drops for the
// balance invariant, and which (source, key) pairs changed lifecycle so
// the sequence-regression check can exempt re-created entries.
func (e *engine) onReceiverEvent(ev signal.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.Kind {
	case signal.EventInstalled:
		e.installs++
	case signal.EventRemoved, signal.EventExpired, signal.EventFalseRemoval, signal.EventOrphaned:
		e.drops++
	default:
		return
	}
	if ev.Peer == nil {
		e.anonEvent = true
		return
	}
	e.touched[signal.RKey(ev.Peer, ev.Key)] = true
}

// apply executes one op.
func (e *engine) apply(op Op) {
	switch op.Kind {
	case OpAdvance:
		e.v.Run(time.Duration(1+int(op.Arg)%32) * time.Millisecond)
	case OpInstall:
		key := PoolKey(int(op.Arg))
		e.gen++
		val := []byte(fmt.Sprintf("g%d", e.gen))
		if e.snd.Install(key, val) == nil {
			e.res.Intent[key] = val
		}
	case OpUpdate:
		key := PoolKey(int(op.Arg))
		e.gen++
		val := []byte(fmt.Sprintf("g%d", e.gen))
		if e.snd.Update(key, val) == nil {
			e.res.Intent[key] = val
		}
	case OpRemove:
		key := PoolKey(int(op.Arg))
		if e.snd.Remove(key) == nil {
			delete(e.res.Intent, key)
		}
	case OpDuplicate:
		if h := e.cap.history(); len(h) > 0 {
			e.inject(h[len(h)-1].raw)
		}
	case OpReplay:
		if h := e.cap.history(); len(h) > 0 {
			e.inject(h[int(op.Arg)%len(h)].raw)
		}
	case OpHold:
		e.cap.mu.Lock()
		holding := e.cap.holding
		e.cap.mu.Unlock()
		if !holding {
			e.cap.hold()
			e.heldSince = e.v.Elapsed()
		}
	case OpRelease:
		e.cap.release()
	case OpSplice:
		if h := e.cap2.history(); len(h) > 0 {
			f := h[int(op.Arg)%len(h)]
			e.inject(f.raw)
			if f.key != "" {
				e.res.Spliced[f.key] = true
			}
		}
	case OpTruncate:
		if h := e.cap.history(); len(h) > 0 {
			raw := h[len(h)-1].raw
			if len(raw) > 1 {
				e.inject(raw[:1+int(op.Arg)%(len(raw)-1)])
			}
		}
	case OpTypeFlip:
		e.typeFlip()
	case OpGarbage:
		junk := make([]byte, 8+int(op.Arg)%24)
		for i := range junk {
			junk[i] = op.Arg ^ byte(i*7)
		}
		e.inject(junk)
	}
}

// inject delivers raw bytes to the receiver as the primary sender: the
// injection path writes through the sender's own endpoint, so the
// receiver attributes the datagram to the genuine source address.
func (e *engine) inject(raw []byte) {
	e.cap.PacketConn.WriteTo(raw, e.rcvAddr) //nolint:errcheck // lossy network semantics
}

// typeFlip re-encodes the most recent trigger or refresh with the other
// type — a checksummed-but-wrong datagram, the kind a confused sender (or
// a bit-flip the CRC happens to miss) would produce.
func (e *engine) typeFlip() {
	h := e.cap.history()
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].typ != wire.TypeTrigger && h[i].typ != wire.TypeRefresh {
			continue
		}
		var m wire.Message
		if err := m.UnmarshalBinary(h[i].raw); err != nil {
			return
		}
		if m.Type == wire.TypeTrigger {
			m.Type = wire.TypeRefresh
		} else {
			m.Type = wire.TypeTrigger
		}
		if raw, err := m.MarshalBinary(); err == nil {
			e.inject(raw)
		}
		return
	}
}

// settle runs the clock past the link delay so every datagram the op
// produced is delivered and processed, then enforces the reorder buffer's
// hold budget.
func (e *engine) settle() {
	e.v.Run(2 * chaosLinkDelay)
	e.cap.mu.Lock()
	holding := e.cap.holding
	e.cap.mu.Unlock()
	if holding && e.v.Elapsed()-e.heldSince >= holdBudget {
		e.cap.release()
		e.v.Run(2 * chaosLinkDelay)
	}
}

// audit checks every invariant the engine maintains, tagging violations
// with the step that exposed them.
func (e *engine) audit(at string) {
	var bad []string
	bad = append(bad, e.rcv.CheckInvariants()...)
	bad = append(bad, e.snd.CheckInvariants()...)
	bad = append(bad, e.snd2.CheckInvariants()...)

	// No accepted message may move a source's sequence space backward.
	// Entries that went through a lifecycle transition since the last
	// audit (expire/remove + re-create legitimately restart the sequence
	// space) are exempt, as is everything after an event with no peer
	// attribution.
	snap := e.rcv.SeqSnapshot()
	e.mu.Lock()
	touched, anon := e.touched, e.anonEvent
	e.touched = make(map[string]bool)
	e.anonEvent = false
	installs, drops := e.installs, e.drops
	e.mu.Unlock()
	if !anon {
		for ck, prev := range e.prevSeq {
			if now, ok := snap[ck]; ok && now < prev && !touched[ck] {
				bad = append(bad, fmt.Sprintf("chaos: sequence regressed %d → %d for %q", prev, now, ck))
			}
		}
	}
	e.prevSeq = snap

	// Lifecycle events must balance table occupancy: every entry was
	// announced installed, every departure announced exactly once.
	if got := e.rcv.Len(); installs-drops != got {
		bad = append(bad, fmt.Sprintf("chaos: %d installs - %d drops ≠ %d table entries", installs, drops, got))
	}

	for _, b := range bad {
		e.res.Violations = append(e.res.Violations, at+": "+b)
	}
}

// finish releases anything still held, quiesces past every repair
// horizon — refresh recreation, state timeout, retransmission, and the
// hard-state orphan sweep (3 probe misses × 90 ms plus cadence) — then
// takes the final audit and the survivor snapshot.
func (e *engine) finish() {
	e.cap.release()
	e.v.Run(8 * chaosTimeout)
	e.audit("final")
	for k := 0; k < poolSize; k++ {
		key := PoolKey(k)
		if val, ok := e.rcv.GetFrom(e.sndAddr, key); ok {
			e.res.Survivor[key] = val
		}
	}
	e.res.DecodeErrors = e.rcv.Stats().DecodeErrors
}

// divergenceViolations applies a variant's allowed-divergence rule to a
// finished run: every refresh-bearing profile must reconverge the
// receiver to the sender's exact intent (refreshes recreate, timeouts
// collect, nothing forged survives a full quiescent horizon), while hard
// state — which never expires and never re-announces — is allowed to
// disagree exactly on the keys a splice injection forged, and nowhere
// else. The empty slice is the pass verdict.
func divergenceViolations(r *Result) []string {
	prof, err := variant.Parse(r.Protocol)
	if err != nil {
		return []string{fmt.Sprintf("chaos: unknown protocol %q", r.Protocol)}
	}
	var bad []string
	for k := 0; k < poolSize; k++ {
		key := PoolKey(k)
		want, wantOK := r.Intent[key]
		got, gotOK := r.Survivor[key]
		if prof.HardState && r.Spliced[key] {
			continue
		}
		switch {
		case wantOK && !gotOK:
			bad = append(bad, fmt.Sprintf("%s: installed key %q missing after quiesce", r.Protocol, key))
		case !wantOK && gotOK:
			bad = append(bad, fmt.Sprintf("%s: removed key %q still held after quiesce (value %q)", r.Protocol, key, got))
		case wantOK && string(want) != string(got):
			bad = append(bad, fmt.Sprintf("%s: key %q holds %q, intent %q", r.Protocol, key, got, want))
		}
	}
	return bad
}
