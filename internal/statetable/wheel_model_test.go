package statetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestTimerNodeSize pins the node at 24 bytes: an entry pays one for each
// kind armed in its chunk, so a word more is up to 16 bytes per key. Links
// are 32-bit node ids, and the node names neither its owner nor its kind:
// its id does.
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
// buckets hold the same nodes in the same order, every advance fires the
// same nodes in the same order, and a level holds heads exactly when some
// node was ever bucketed there. Model node i is kind i%2 of model entry
// i/2, and the entries sit in modelChunks entry chunks, so node chunks are
// allocated partway through a script, one per (kind, chunk) the script
// arms and as long as its entry chunk, and a script can free an entry and
// reuse its id. One interpreter serves the seeded scripts and the fuzz
// target.
type wheelModel struct {
	t      *testing.T
	w      *testWheel
	eids   []uint32 // model entry j's entry id in w
	ids    []uint32 // model node i's node id in w
	ref    refWheel
	refs   []*refNode                       // model node i in ref
	due    map[int]int64                    // armed (or queued, not yet fired) → deadline
	armed  [NumTimerKinds][modelChunks]bool // some node of the kind in the chunk was ever scheduled
	reuses int                              // entries freed and their ids reused
	script []byte
}

const (
	modelEntries = 8
	modelNodes   = modelEntries * NumTimerKinds
	modelChunks  = 4
)

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
	m.w.schedule(m.ids[i], tick)
	m.armed[i%NumTimerKinds][(m.eids[i/NumTimerKinds]-1)>>chunkBits] = true
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
	m.w.cancel(m.ids[i])
	m.ref.cancel(m.refs[i])
	delete(m.due, i)
}

// reuse frees model entry j the way a table releases a deleted entry and
// allocates again, which must hand back the same id with every timer idle
// and zeroed, whether or not its chunk's nodes exist and whether or not a
// node of it is queued further down the list being drained.
func (m *wheelModel) reuse(j int) {
	eid := m.eids[j]
	m.w.release(eid)
	m.w.ents.release(eid, m.w.ents.at(eid))
	if id, _ := m.w.ents.alloc(); id != eid {
		m.t.Fatalf("entry %d freed id %d, the next alloc took %d", j, eid, id)
	}
	for k := 0; k < NumTimerKinds; k++ {
		i := j*NumTimerKinds + k
		if n := m.w.lookup(m.ids[i]); n != nil && *n != (timerNode{}) {
			m.t.Fatalf("entry %d's reused id starts with kind %d node %+v", j, k, *n)
		}
		m.ref.cancel(m.refs[i])
		delete(m.due, i)
	}
	m.reuses++
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
		cur := m.w.node(m.ids[i])
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
		switch m.next() % 5 {
		case 1:
			m.schedule(i, m.w.now+m.delta())
		case 2:
			m.cancel(m.node())
		case 3:
			m.schedule(m.node(), m.w.now+m.delta())
		case 4:
			m.reuse(m.node() / NumTimerKinds)
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
// wheel bucket by bucket, requires a node chunk, as long as its entry
// chunk, for exactly the (kind, chunk)s the script has armed and a level's
// heads for exactly the levels the pointer wheel ever bucketed a node at,
// walks every bucket for link integrity, and bounds nextEventTick.
func (m *wheelModel) check() {
	w := &m.w.wheel
	for i, id := range m.ids {
		d, armed := m.due[i]
		switch state := w.state(id); {
		case armed && (state != timerArmed || w.node(id).deadline != d):
			m.t.Fatalf("node %d: state %d, map armed for %d", i, state, d)
		case !armed && state != timerIdle:
			m.t.Fatalf("node %d: state %d, map idle", i, state)
		}
	}
	for k := range w.nodes {
		if len(w.nodes[k]) > modelChunks {
			m.t.Fatalf("kind %d has %d node chunks for %d entry chunks", k, len(w.nodes[k]), modelChunks)
		}
		for c := 0; c < modelChunks; c++ {
			n, want := 0, 0
			if c < len(w.nodes[k]) {
				n = len(w.nodes[k][c])
			}
			if m.armed[k][c] {
				want = len(m.w.ents.chunks[c])
			}
			if n != want {
				m.t.Fatalf("kind %d chunk %d: %d nodes, want %d (armed: %v)", k, c, n, want, m.armed[k][c])
			}
		}
	}
	if w.count != len(m.due) || m.ref.count != w.count {
		m.t.Fatalf("count = %d, the pointer wheel's %d, the map holds %d armed", w.count, m.ref.count, len(m.due))
	}
	if w.rebuckets != m.ref.rebuckets {
		m.t.Fatalf("%d re-buckets, the pointer wheel %d", w.rebuckets, m.ref.rebuckets)
	}
	linked := 0
	for l, heads := range w.slots {
		if (heads != nil) != m.ref.used[l] {
			m.t.Fatalf("level %d has heads: %v, a node was ever bucketed there: %v", l, heads != nil, m.ref.used[l])
		}
		if heads == nil {
			continue
		}
		for s := range heads {
			prev := bucketRef | uint32(l)<<wheelBits | uint32(s)
			rn := m.ref.slots[l][s]
			for id := heads[s]; id != 0; id = w.node(id).next {
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
			if n := w.node(m.ids[i]); next > n.deadline-int64(n.slack) {
				m.t.Fatalf("nextEventTick = %d is past node %d's bucket tick %d", next, i, n.deadline-int64(n.slack))
			}
		}
	}
}

// runWheelScript interprets script to its end, then drains the wheel so
// every timer still armed is seen to fire. It returns how many deferred
// re-buckets the script provoked and how many entry ids it reused.
func runWheelScript(t *testing.T, script []byte) (rebuckets uint64, reuses int) {
	m := &wheelModel{t: t, w: newTestWheel(), due: make(map[int]int64), script: script}
	for i := 0; len(m.w.ents.chunks) < modelChunks || m.w.ents.fill < uint32(len(m.w.ents.chunks[modelChunks-1])); i++ {
		m.w.newNode(fmt.Sprint(i)) // fill the chunks the model entries sit in
	}
	for j := uint32(0); j < modelEntries; j++ {
		eid := 1 + (j%modelChunks)<<chunkBits + j/modelChunks // entry chunk j%modelChunks
		m.eids = append(m.eids, eid)
		for k := TimerKind(0); k < NumTimerKinds; k++ {
			m.ids = append(m.ids, nodeID(eid, k))
			m.refs = append(m.refs, &refNode{idx: len(m.refs)})
		}
	}
	m.check() // nothing armed: no node chunk
	for len(m.script) > 0 {
		switch op := m.next(); op % 9 {
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
		case 8: // free an entry and reuse its id
			m.reuse(m.node() / NumTimerKinds)
		}
		m.check()
	}
	m.script = nil // drain with callbacks that do nothing
	for len(m.due) > 0 {
		first, _ := m.earliest()
		m.advance(first)
		m.check()
	}
	return m.w.rebuckets, m.reuses
}

// TestWheelModel runs seeded random scripts through the reference check.
func TestWheelModel(t *testing.T) {
	var rebuckets uint64
	var reuses int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 64+rng.Intn(2048))
		rng.Read(script)
		r, u := runWheelScript(t, script)
		rebuckets += r
		reuses += u
	}
	if rebuckets == 0 {
		t.Fatal("no script extended a deadline past its bucket: the lazy path went untested")
	}
	if reuses == 0 {
		t.Fatal("no script reused an entry id")
	}
	t.Logf("%d deferred re-buckets, %d reused ids across the scripts", rebuckets, reuses)
}

// FuzzWheel is the same check with the fuzzer writing the script.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{0, 1, 200, 1, 2, 1, 50, 2, 1, 50, 5, 255, 7, 7})             // arm, extend twice, step, hit
	f.Add([]byte{0, 3, 9, 4, 6, 255, 3, 0, 3, 1, 0, 3, 3, 3, 40, 7, 6})       // past the horizon, jump, pull earlier
	f.Add([]byte{1, 0, 5, 0, 1, 1, 5, 0, 5, 10, 1, 0, 9, 9, 2, 1, 7})         // same tick, callbacks re-arm and delete
	f.Add([]byte{0, 1, 9, 0, 0, 0, 9, 0, 5, 9, 4, 0, 8, 2, 4, 3, 0, 1, 9, 0}) // both kinds due at once, a callback frees their entry; never-armed chunks freed and cancelled
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip()
		}
		runWheelScript(t, script)
	})
}
