package statetable

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestTimerNodeSize pins the node at 24 bytes: every entry embeds
// NumTimerKinds of them, so a word more is 16 bytes per key. Links are
// 32-bit node ids, and the node names neither its owner nor its kind: its
// id does.
func TestTimerNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(timerNode{}); got != 24 {
		t.Fatalf("timerNode is %d bytes, want 24", got)
	}
}

// wheelModel drives a wheel, a map-of-deadlines reference and the
// pointer-linked reference wheel side by side from a byte script. After
// every step the map says every armed timer fires exactly once, at the
// tick it was last scheduled for and never before it, that count matches
// and that nextEventTick never oversleeps; the pointer wheel says the
// buckets hold the same nodes in the same order and every advance fires
// the same nodes in the same order. One interpreter serves the seeded
// scripts and the fuzz target.
type wheelModel struct {
	t      *testing.T
	w      *testWheel
	ids    []uint32 // model node i's node id in w
	ref    refWheel
	refs   []*refNode    // model node i in ref
	due    map[int]int64 // armed (or queued, not yet fired) → deadline
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

func (m *wheelModel) node() int { return int(m.next()) % modelNodes }

func (m *wheelModel) tn(i int) *timerNode { return m.w.node(m.ids[i]) }

// delta decodes a signed distance from two bytes: a magnitude on one of
// five scales — one per wheel level, and one past wheelSpan — nudged by
// −8…+7 ticks so deadlines straddle level boundaries and land at or
// before now.
func (m *wheelModel) delta() int64 {
	a, b := m.next(), m.next()
	return int64(a)<<(wheelBits*(b%5)) + int64(b>>4) - 8
}

// schedule arms node i for tick in both wheels and, clamped by the wheel's
// documented rules (past → next tick, beyond the horizon → the horizon),
// in the map.
func (m *wheelModel) schedule(i int, tick int64) {
	m.w.arm(m.ids[i], tick)
	m.ref.schedule(m.refs[i], tick)
	if tick <= m.w.now {
		tick = m.w.now + 1
	}
	if tick-m.w.now >= wheelSpan {
		tick = m.w.now + wheelSpan - 1
	}
	m.due[i] = tick
}

func (m *wheelModel) cancel(i int) {
	m.w.disarm(m.ids[i])
	m.ref.cancel(m.refs[i])
	delete(m.due, i)
}

// earliest returns the map's earliest deadline (armed timers only).
func (m *wheelModel) earliest() (int64, bool) {
	best, ok := int64(0), false
	for _, d := range m.due {
		if !ok || d < best {
			best, ok = d, true
		}
	}
	return best, ok
}

// advance moves both wheels to target, requires the same fired sequence
// from each, and drains it the way advanceLocked does, with the script
// deciding what each "callback" does: nothing, re-arm the fired timer, or
// delete / reschedule another one — which may itself be queued further
// down the list.
func (m *wheelModel) advance(target int64) {
	from := m.w.now
	last := from
	fired := slices.Clone(m.w.advance(target))
	var refFired []int
	for n := m.ref.advance(target); n != nil; n = n.qnext {
		refFired = append(refFired, n.idx)
	}
	idx := make([]int, len(fired))
	for k, id := range fired {
		idx[k] = slices.Index(m.ids, id)
	}
	if !slices.Equal(idx, refFired) {
		m.t.Fatalf("advance to %d fired nodes %v, the pointer wheel %v", target, idx, refFired)
	}
	for _, i := range idx {
		cur := m.tn(i)
		if cur.state != m.refs[i].state {
			m.t.Fatalf("node %d in the fired list in state %d, %d in the pointer wheel", i, cur.state, m.refs[i].state)
		}
		if cur.state != timerQueued {
			if _, armed := m.due[i]; armed && cur.state != timerArmed {
				m.t.Fatalf("node %d dropped from the list while the map holds it armed", i)
			}
			continue // cancelled or rescheduled by an earlier callback
		}
		cur.state = timerIdle
		m.refs[i].state = timerIdle
		d, armed := m.due[i]
		switch {
		case !armed:
			m.t.Fatalf("node %d fired at ≤%d but the map holds it idle", i, target)
		case d != cur.deadline:
			m.t.Fatalf("node %d fired with deadline %d, last scheduled for %d", i, cur.deadline, d)
		case d <= from || d > target:
			m.t.Fatalf("node %d due at %d fired in advance (%d, %d]", i, d, from, target)
		case d < last:
			m.t.Fatalf("node %d due at %d fired after one due at %d", i, d, last)
		}
		last = d
		delete(m.due, i)
		switch m.next() % 4 {
		case 1:
			m.schedule(i, m.w.now+m.delta())
		case 2:
			m.cancel(m.node())
		case 3:
			m.schedule(m.node(), m.w.now+m.delta())
		}
	}
	if m.w.now != target || m.ref.now != target {
		m.t.Fatalf("advance(%d) left the wheels at %d and %d", target, m.w.now, m.ref.now)
	}
	for i, d := range m.due {
		if d <= target {
			m.t.Fatalf("node %d due at %d still armed after advance to %d", i, d, target)
		}
	}
}

// check compares the wheel with the map node by node and with the pointer
// wheel bucket by bucket, walks every bucket for link integrity, and
// bounds nextEventTick.
func (m *wheelModel) check() {
	w := &m.w.wheel
	for i := range m.ids {
		n := m.tn(i)
		d, armed := m.due[i]
		switch {
		case armed && (n.state != timerArmed || n.deadline != d):
			m.t.Fatalf("node %d: state %d deadline %d, map armed for %d", i, n.state, n.deadline, d)
		case !armed && n.state != timerIdle:
			m.t.Fatalf("node %d: state %d, map idle", i, n.state)
		}
	}
	if w.count != len(m.due) || m.ref.count != w.count {
		m.t.Fatalf("count = %d, the pointer wheel's %d, the map holds %d armed", w.count, m.ref.count, len(m.due))
	}
	if w.rebuckets != m.ref.rebuckets {
		m.t.Fatalf("%d re-buckets, the pointer wheel %d", w.rebuckets, m.ref.rebuckets)
	}
	linked := 0
	for l := range w.slots {
		for s := range w.slots[l] {
			prev := bucketRef | uint32(l)<<wheelBits | uint32(s)
			rn := m.ref.slots[l][s]
			for id := w.slots[l][s]; id != 0; id = w.node(id).next {
				n := w.node(id)
				i := slices.Index(m.ids, id)
				if n.pprev != prev || n.state != timerArmed {
					m.t.Fatalf("node %d mislinked in level %d slot %d (state %d)", i, l, s, n.state)
				}
				if rn == nil {
					m.t.Fatalf("level %d slot %d holds node %d past the pointer wheel's last", l, s, i)
				}
				if rn.idx != i {
					m.t.Fatalf("level %d slot %d holds node %d where the pointer wheel holds node %d", l, s, i, rn.idx)
				}
				if bucket := n.deadline - int64(n.slack); bucket <= w.now || bucket > n.deadline {
					m.t.Fatalf("node %d: bucket tick %d outside (now %d, deadline %d]", i, bucket, w.now, n.deadline)
				}
				prev = id
				rn = rn.next
				linked++
			}
			if rn != nil {
				m.t.Fatalf("level %d slot %d ends where the pointer wheel holds node %d next", l, s, rn.idx)
			}
		}
	}
	if linked != w.count {
		m.t.Fatalf("%d nodes linked, count = %d", linked, w.count)
	}
	if first, ok := m.earliest(); ok {
		next := w.nextEventTick()
		if next <= w.now || next > first {
			m.t.Fatalf("nextEventTick = %d with now %d and the earliest deadline at %d", next, w.now, first)
		}
		if ref := m.ref.nextEventTick(); next != ref {
			m.t.Fatalf("nextEventTick = %d, the pointer wheel's %d", next, ref)
		}
		for i := range m.due {
			if n := m.tn(i); next > n.deadline-int64(n.slack) {
				m.t.Fatalf("nextEventTick = %d is past node %d's bucket tick %d", next, i, n.deadline-int64(n.slack))
			}
		}
	}
}

// runWheelScript interprets script to its end, then drains the wheel so
// every timer still armed is seen to fire. It returns how many deferred
// re-buckets the script provoked.
func runWheelScript(t *testing.T, script []byte) uint64 {
	m := &wheelModel{t: t, w: newTestWheel(), due: make(map[int]int64), script: script}
	for i := 0; i < modelNodes; i++ {
		m.ids = append(m.ids, m.w.newNode(string(rune('a'+i))))
		m.refs = append(m.refs, &refNode{idx: i})
	}
	for len(m.script) > 0 {
		switch op := m.next(); op % 8 {
		case 0, 1: // schedule relative to now: earlier, later or the same
			m.schedule(m.node(), m.w.now+m.delta())
		case 2: // push an armed deadline later (the refresh path)
			i := m.node()
			if d, armed := m.due[i]; armed {
				m.schedule(i, d+int64(m.next()))
			}
		case 3: // pull an armed deadline earlier, or leave it on its tick
			i := m.node()
			if d, armed := m.due[i]; armed {
				m.schedule(i, d-int64(m.next()%64))
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
