// Package clock abstracts time for the signaling runtime so the same
// protocol code runs in two modes: live, against the wall clock
// (clock.System), and simulated, against a virtual clock driven by the
// discrete-event kernel of internal/des (clock.NewVirtual).
//
// Every time-dependent layer — internal/statetable's timing wheels,
// internal/lossy's delayed datagram delivery, internal/signal's summary
// sweeper, idle reaper and ack flusher — takes a Clock in its config and
// schedules all deadlines through it as Timer callbacks. A Clock says one
// thing about its kind — Gate, whether time waits for the work its events
// induce, which only internal/lossy asks — so there is one driver per job,
// not one per clock. Under clock.System a Timer is a time.AfterFunc and
// each callback runs on its own goroutine. Under a *Virtual clock no wall
// time passes at all: deadlines become kernel events, the driver pumps them
// with Run, and a simulated hour of 64-peer refresh traffic executes in
// however long the event processing takes — deterministically, which is
// what lets the paper's experiments run on the production code path
// (internal/sim) and lets protocol tests replace sleep/poll loops with
// virtual waits.
package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/des"
)

// Timer is a restartable one-shot timer bound to a callback, mirroring
// time.AfterFunc. Reset replaces any pending expiry; Stop disarms. Like
// time.Timer, neither recalls a callback the clock already dispatched:
// it still runs, possibly alongside the re-armed one. Callbacks are
// therefore written to act on the present state (advance to now, take
// what is pending) and to re-check their owner's closed flag under the
// lock its Close passes through.
type Timer interface {
	Reset(d time.Duration)
	Stop()
}

// Clock is the time source and timer factory shared by live and virtual
// modes.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// NewTimer returns an unarmed timer that runs fn on expiry.
	NewTimer(fn func()) Timer
	// AfterFunc returns a timer armed to run fn after d.
	AfterFunc(d time.Duration, fn func()) Timer
	// Gate returns the quiesce gate that work induced by the clock's events
	// holds while it runs, or nil when time waits for nobody (clock.System).
	Gate() Gate
}

// Gate is a simulated clock's quiesce gate: Enter marks one unit of induced
// work outstanding, the matching Exit retires it, and no further event
// fires in between.
type Gate interface {
	Enter()
	Exit()
}

// Or returns c, or System when c is nil — the config-default helper used
// by every layer that takes an optional Clock.
func Or(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

// System is the wall clock: package time, unchanged semantics.
var System Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (systemClock) Gate() Gate                      { return nil }

func (systemClock) NewTimer(fn func()) Timer { return &sysTimer{fn: fn} }

func (systemClock) AfterFunc(d time.Duration, fn func()) Timer {
	t := &sysTimer{fn: fn}
	t.Reset(d)
	return t
}

// sysTimer is the wall-clock Timer: a time.AfterFunc timer, made the first
// time it is armed and dropped when it is stopped. Dropped, because the Go
// runtime keeps a stopped AfterFunc timer in its timer heap until the old
// deadline comes up, and with it whatever the callback references — a
// closed million-key table would stay reachable for a refresh interval.
// So the runtime timer calls through a cell that Stop empties: what stays
// behind in the heap pins the cell and nothing else, and a callback
// dispatched just before Stop finds the cell empty and does nothing.
type sysTimer struct {
	fn   func()
	mu   sync.Mutex
	cell *sysCell // nil until Reset, nil again after Stop
}

// sysCell is one runtime timer and the callback it may still run.
type sysCell struct {
	t  *time.Timer
	fn atomic.Pointer[func()]
}

func (c *sysCell) fire() {
	if fn := c.fn.Load(); fn != nil {
		(*fn)()
	}
}

func (t *sysTimer) Reset(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cell != nil {
		t.cell.t.Reset(d)
		return
	}
	c := &sysCell{}
	c.fn.Store(&t.fn)
	c.t = time.AfterFunc(d, c.fire)
	t.cell = c
}

func (t *sysTimer) Stop() {
	t.mu.Lock()
	if c := t.cell; c != nil {
		c.t.Stop()
		c.fn.Store(nil)
		t.cell = nil
	}
	t.mu.Unlock()
}

// epoch is the fixed origin of every virtual clock: runs are reproducible,
// so virtual time must not depend on when the process started.
var epoch = time.Date(2003, 8, 25, 0, 0, 0, 0, time.UTC) // SIGCOMM '03

// Virtual is a deterministic simulated clock. Timers are events on an
// internal des.Kernel whose time unit is nanoseconds (held exactly by
// float64 for ~104 days of simulated time); nothing fires until a driver
// goroutine calls Run.
//
// Determinism contract: exactly one goroutine drives Run, and all other
// goroutines touching the clocked system (protocol read loops, state-table
// users) only run as a consequence of events the driver fires. The gate
// (Enter/Exit) tracks that induced work — a lossy pipe Enters when it
// hands a datagram to a reader goroutine and Exits when the reader has
// fully processed it — and Run waits for the gate to drain before firing
// the next event, so virtual time never advances while a protocol
// goroutine is mid-message. API calls on endpoints (Install, Remove,
// Close) must happen on the driver goroutine between Run calls.
type Virtual struct {
	mu sync.Mutex // guards the kernel (scheduling vs the driver's pops)
	k  *des.Kernel

	// The gate is deliberately outside mu: Enter and Exit are single
	// atomic ops on the hot path (one pair per delivered datagram batch),
	// blocking only when the driver is actually waiting for quiescence.
	busy    atomic.Int64
	waiting atomic.Bool   // the driver is parked in quiesce
	idle    chan struct{} // buffered wakeup token for the parked driver
	parks   atomic.Int64  // times the driver actually parked (slow path)
}

// NewVirtual returns a virtual clock at the epoch.
func NewVirtual() *Virtual {
	return &Virtual{k: des.New(), idle: make(chan struct{}, 1)}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return epoch.Add(time.Duration(v.k.Now()))
}

// Since returns Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Elapsed returns the virtual time advanced since creation.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return time.Duration(v.k.Now())
}

// NewTimer returns an unarmed virtual timer running fn on expiry.
func (v *Virtual) NewTimer(fn func()) Timer {
	if fn == nil {
		panic("clock: nil timer callback")
	}
	return &vTimer{v: v, t: v.k.NewTimer(fn)}
}

// AfterFunc returns a virtual timer armed to run fn after d.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := v.NewTimer(fn)
	t.Reset(d)
	return t
}

// vTimer owns one kernel event for its whole lifetime: Reset rearms it in
// place (resifting the pending heap node, or pushing the fired one back)
// and Stop detaches it from the heap. A timer that is reset millions of
// times — a state-table shard poke, an ack-flush window — therefore
// allocates nothing after creation and leaves no cancelled tombstones to
// bloat the kernel heap.
type vTimer struct {
	v *Virtual
	t *des.Timer
}

func (t *vTimer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.v.mu.Lock()
	t.t.Reset(float64(d))
	t.v.mu.Unlock()
}

func (t *vTimer) Stop() {
	t.v.mu.Lock()
	t.t.Stop()
	t.v.mu.Unlock()
}

// Gate returns the clock itself: Run waits on its Enter/Exit ledger.
func (v *Virtual) Gate() Gate { return v }

// Enter marks one unit of induced work outstanding: a datagram or wakeup
// has been handed to a goroutine that has not finished reacting to it.
// Run will not fire further events until a matching Exit. Enter is a
// single atomic increment.
func (v *Virtual) Enter() {
	v.busy.Add(1)
}

// Exit retires one unit of induced work, waking the driver if it emptied
// the gate while the driver was parked waiting for quiescence.
func (v *Virtual) Exit() {
	n := v.busy.Add(-1)
	if n < 0 {
		panic("clock: Exit without matching Enter")
	}
	if n == 0 && v.waiting.Load() {
		select {
		case v.idle <- struct{}{}:
		default:
		}
	}
}

// Parks returns how many times the driver took the quiesce slow path —
// actually parking to wait for induced work instead of finding the gate
// already drained. A high park rate relative to events fired means the
// gate, not event processing, bounds simulation throughput; telemetry
// exposes it as the gate-park counter.
func (v *Virtual) Parks() int64 { return v.parks.Load() }

// quiesce blocks until the gate drains. Fast path: one atomic load. Slow
// path: publish the waiting flag and park on the wakeup token, rechecking
// busy after each wakeup (spurious tokens are harmless).
func (v *Virtual) quiesce() {
	if v.busy.Load() == 0 {
		return
	}
	v.parks.Add(1)
	v.waiting.Store(true)
	for v.busy.Load() != 0 {
		<-v.idle
	}
	v.waiting.Store(false)
	select { // drain a stale token left by a racing Exit
	case <-v.idle:
	default:
	}
}

// Run advances virtual time by d, firing every due timer in deterministic
// kernel order. Before each event — and before finally advancing to the
// horizon — it waits for the gate to drain, so all work induced by one
// event completes before the next fires. Callbacks run on the caller's
// goroutine. Run must not be called from inside a callback.
func (v *Virtual) Run(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative Run duration %v", d))
	}
	v.mu.Lock()
	horizon := v.k.Now() + float64(d)
	v.mu.Unlock()
	for {
		v.quiesce()
		v.mu.Lock()
		fn := v.k.PopDue(horizon)
		v.mu.Unlock()
		if fn == nil {
			break
		}
		fn()
	}
	v.mu.Lock()
	v.k.RunUntil(horizon) // no due events remain: just advance the clock
	v.mu.Unlock()
}

// RunUntil advances virtual time until cond holds or budget elapses,
// checking every step. It reports whether cond held, and is the virtual
// replacement for sleep/poll loops in tests and demos. cond runs on the
// driver goroutine with the system quiesced.
func (v *Virtual) RunUntil(cond func() bool, step, budget time.Duration) bool {
	if step <= 0 {
		panic("clock: non-positive RunUntil step")
	}
	for spent := time.Duration(0); ; spent += step {
		if cond() {
			return true
		}
		if spent >= budget {
			return false
		}
		v.Run(step)
	}
}
