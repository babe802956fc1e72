package statetable

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestTimerNodeSize pins the node at 48 bytes: every entry embeds
// NumTimerKinds of them, so a word more is 16 bytes per key. The lazy
// extension's slack field lives in what was padding after kind/state.
func TestTimerNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(timerNode[int]{}); got != 48 {
		t.Fatalf("timerNode is %d bytes, want 48", got)
	}
}

// wheelModel drives a wheel and a map-of-deadlines reference side by side
// from a byte script and checks after every step that they agree: every
// armed timer fires exactly once, at the tick it was last scheduled for
// and never before it; count matches; nextEventTick never oversleeps. One
// interpreter serves the seeded scripts and the fuzz target.
type wheelModel struct {
	t      *testing.T
	w      wheel[int]
	nodes  []*timerNode[int]
	due    map[*timerNode[int]]int64 // armed (or queued, not yet fired) → deadline
	script []byte
}

const modelNodes = 16

// next pops one script byte; an exhausted script reads as zeros.
func (m *wheelModel) next() byte {
	if len(m.script) == 0 {
		return 0
	}
	b := m.script[0]
	m.script = m.script[1:]
	return b
}

func (m *wheelModel) node() *timerNode[int] { return m.nodes[int(m.next())%modelNodes] }

// delta decodes a signed distance from two bytes: a magnitude on one of
// five scales — one per wheel level, and one past wheelSpan — nudged by
// −8…+7 ticks so deadlines straddle level boundaries and land at or
// before now.
func (m *wheelModel) delta() int64 {
	a, b := m.next(), m.next()
	return int64(a)<<(wheelBits*(b%5)) + int64(b>>4) - 8
}

// schedule arms n for tick in the wheel and, clamped by the wheel's
// documented rules (past → next tick, beyond the horizon → the horizon),
// in the reference.
func (m *wheelModel) schedule(n *timerNode[int], tick int64) {
	m.w.schedule(n, tick)
	if tick <= m.w.now {
		tick = m.w.now + 1
	}
	if tick-m.w.now >= wheelSpan {
		tick = m.w.now + wheelSpan - 1
	}
	m.due[n] = tick
}

func (m *wheelModel) cancel(n *timerNode[int]) {
	m.w.cancel(n)
	delete(m.due, n)
}

// earliest returns the reference's earliest deadline (armed timers only).
func (m *wheelModel) earliest() (int64, bool) {
	best, ok := int64(0), false
	for _, d := range m.due {
		if !ok || d < best {
			best, ok = d, true
		}
	}
	return best, ok
}

// advance moves the wheel to target and drains the expired chain the way
// advanceLocked does, with the script deciding what each "callback" does:
// nothing, re-arm the fired timer, or delete / reschedule another one —
// which may itself be queued further down the chain.
func (m *wheelModel) advance(target int64) {
	from := m.w.now
	last := from
	for n := m.w.advance(target); n != nil; {
		cur := n
		n = cur.qnext
		cur.qnext = nil
		if cur.state != timerQueued {
			if _, armed := m.due[cur]; armed && cur.state != timerArmed {
				m.t.Fatalf("node %s dropped from the chain while the reference holds it armed", cur.owner.key)
			}
			continue // cancelled or rescheduled by an earlier callback
		}
		cur.state = timerIdle
		d, armed := m.due[cur]
		switch {
		case !armed:
			m.t.Fatalf("node %s fired at ≤%d but the reference holds it idle", cur.owner.key, target)
		case d != cur.deadline:
			m.t.Fatalf("node %s fired with deadline %d, last scheduled for %d", cur.owner.key, cur.deadline, d)
		case d <= from || d > target:
			m.t.Fatalf("node %s due at %d fired in advance (%d, %d]", cur.owner.key, d, from, target)
		case d < last:
			m.t.Fatalf("node %s due at %d fired after one due at %d", cur.owner.key, d, last)
		}
		last = d
		delete(m.due, cur)
		switch m.next() % 4 {
		case 1:
			m.schedule(cur, m.w.now+m.delta())
		case 2:
			m.cancel(m.node())
		case 3:
			m.schedule(m.node(), m.w.now+m.delta())
		}
	}
	if m.w.now != target {
		m.t.Fatalf("advance(%d) left the wheel at %d", target, m.w.now)
	}
	for n, d := range m.due {
		if d <= target {
			m.t.Fatalf("node %s due at %d still armed after advance to %d", n.owner.key, d, target)
		}
	}
}

// check compares the wheel with the reference node by node, walks every
// bucket for link integrity, and bounds nextEventTick.
func (m *wheelModel) check() {
	for _, n := range m.nodes {
		d, armed := m.due[n]
		switch {
		case armed && (n.state != timerArmed || n.deadline != d):
			m.t.Fatalf("node %s: state %d deadline %d, reference armed for %d", n.owner.key, n.state, n.deadline, d)
		case !armed && n.state != timerIdle:
			m.t.Fatalf("node %s: state %d, reference idle", n.owner.key, n.state)
		}
	}
	if m.w.count != len(m.due) {
		m.t.Fatalf("count = %d, reference holds %d armed", m.w.count, len(m.due))
	}
	linked := 0
	for l := range m.w.slots {
		for s := range m.w.slots[l] {
			for pp := &m.w.slots[l][s]; *pp != nil; pp = &(*pp).next {
				n := *pp
				if n.pprev != pp || n.state != timerArmed {
					m.t.Fatalf("node %s mislinked in level %d slot %d (state %d)", n.owner.key, l, s, n.state)
				}
				if bucket := n.deadline - int64(n.slack); bucket <= m.w.now || bucket > n.deadline {
					m.t.Fatalf("node %s: bucket tick %d outside (now %d, deadline %d]", n.owner.key, bucket, m.w.now, n.deadline)
				}
				linked++
			}
		}
	}
	if linked != m.w.count {
		m.t.Fatalf("%d nodes linked, count = %d", linked, m.w.count)
	}
	if first, ok := m.earliest(); ok {
		next := m.w.nextEventTick()
		if next <= m.w.now || next > first {
			m.t.Fatalf("nextEventTick = %d with now %d and the earliest deadline at %d", next, m.w.now, first)
		}
		for n := range m.due {
			if bucket := n.deadline - int64(n.slack); next > bucket {
				m.t.Fatalf("nextEventTick = %d is past node %s's bucket tick %d", next, n.owner.key, bucket)
			}
		}
	}
}

// runWheelScript interprets script to its end, then drains the wheel so
// every timer still armed is seen to fire. It returns how many deferred
// re-buckets the script provoked.
func runWheelScript(t *testing.T, script []byte) uint64 {
	m := &wheelModel{t: t, due: make(map[*timerNode[int]]int64), script: script}
	for i := 0; i < modelNodes; i++ {
		m.nodes = append(m.nodes, newNode(string(rune('a'+i))))
	}
	for len(m.script) > 0 {
		switch op := m.next(); op % 8 {
		case 0, 1: // schedule relative to now: earlier, later or the same
			m.schedule(m.node(), m.w.now+m.delta())
		case 2: // push an armed deadline later (the refresh path)
			n := m.node()
			if d, armed := m.due[n]; armed {
				m.schedule(n, d+int64(m.next()))
			}
		case 3: // pull an armed deadline earlier, or leave it on its tick
			n := m.node()
			if d, armed := m.due[n]; armed {
				m.schedule(n, d-int64(m.next()%64))
			}
		case 4:
			m.cancel(m.node())
		case 5: // a few ticks
			m.advance(m.w.now + int64(m.next()))
		case 6: // an idle jump on any scale, past the horizon included
			if d := m.delta(); d > 0 {
				m.advance(m.w.now + d)
			}
		case 7: // up to the tick before the earliest deadline, then onto it
			if first, ok := m.earliest(); ok {
				m.advance(first - 1) // fails if anything fires: nothing is due yet
				m.check()
				m.advance(first)
			}
		}
		m.check()
	}
	m.script = nil // drain with callbacks that do nothing
	for len(m.due) > 0 {
		first, _ := m.earliest()
		m.advance(first)
		m.check()
	}
	return m.w.rebuckets
}

// TestWheelModel runs seeded random scripts through the reference check.
func TestWheelModel(t *testing.T) {
	var rebuckets uint64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 64+rng.Intn(2048))
		rng.Read(script)
		rebuckets += runWheelScript(t, script)
	}
	if rebuckets == 0 {
		t.Fatal("no script extended a deadline past its bucket: the lazy path went untested")
	}
	t.Logf("%d deferred re-buckets across the scripts", rebuckets)
}

// FuzzWheel is the same check with the fuzzer writing the script.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{0, 1, 200, 1, 2, 1, 50, 2, 1, 50, 5, 255, 7, 7})       // arm, extend twice, step, hit
	f.Add([]byte{0, 3, 9, 4, 6, 255, 3, 0, 3, 1, 0, 3, 3, 3, 40, 7, 6}) // past the horizon, jump, pull earlier
	f.Add([]byte{1, 0, 5, 0, 1, 1, 5, 0, 5, 10, 1, 0, 9, 9, 2, 1, 7})   // same tick, callbacks re-arm and delete
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip()
		}
		runWheelScript(t, script)
	})
}
