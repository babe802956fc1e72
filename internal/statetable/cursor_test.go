package statetable

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestEntryOverhead pins what an entry adds to the caller's value at 144
// bytes: key, digest cache, tag, the sweep-order hint with its shard
// number, two timer nodes. internal/signal sizes its values against this
// (TestEntrySizes there) so both of its entries stay in their allocator
// size class.
func TestEntryOverhead(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit targets")
	}
	type v struct{ a, b uint64 }
	if got := unsafe.Sizeof(entry[v]{}) - unsafe.Sizeof(v{}); got != 144 {
		t.Fatalf("entry adds %d bytes to its value, want 144", got)
	}
}

// cursorModel drives a table through two cursors and a map reference side
// by side from a byte script. After every step: a lookup through a cursor
// answers exactly what UpdateBytes answers and shows fn the value the
// reference holds, whatever the hints say; a dropped entry's hint is the
// dropped mark and nothing else (so dropped entries never chain); a live
// entry's hint never looks like the mark. One interpreter serves the
// seeded scripts and the fuzz target.
type cursorModel struct {
	t      *testing.T
	tbl    *Table[int]
	ref    map[string]int
	cur    [2]Cursor[int]
	dead   []*entry[int]
	gen    int
	script []byte
}

const cursorKeys = 32

func (m *cursorModel) next() byte {
	if len(m.script) == 0 {
		return 0
	}
	b := m.script[0]
	m.script = m.script[1:]
	return b
}

// cursorKey names key k of the universe: two peers holding the same
// sixteen user keys, so a hint followed on the user key alone would land on
// the other peer's entry.
func cursorKey(k byte) string {
	k %= cursorKeys
	return fmt.Sprintf("peer%d\x00key/%02d", k/(cursorKeys/2), k%(cursorKeys/2))
}

func (m *cursorModel) entryOf(key string) *entry[int] {
	return m.tbl.shardOf(key).idx.get(m.tbl.tagOf(key), key)
}

func (m *cursorModel) upsert(key string) {
	m.gen++
	gen := m.gen
	m.tbl.Upsert(key, func(v *int, _ bool, tc TimerControl[int]) {
		*v = gen
		tc.MarkDigestDirty()
		tc.Schedule(0, time.Hour)
	})
	m.ref[key] = gen
}

func (m *cursorModel) delete(key string) {
	e := m.entryOf(key)
	_, held := m.ref[key]
	if got := m.tbl.Delete(key); got != held {
		m.t.Fatalf("Delete(%q) = %v, reference holds it: %v", key, got, held)
	}
	if held {
		m.dead = append(m.dead, e)
		delete(m.ref, key)
	}
}

// visit renews key through cursor c and checks the answer against the
// reference and against UpdateBytes. drop makes fn delete the entry it was
// handed, which leaves the cursor resting on a dropped entry.
func (m *cursorModel) visit(c int, key string, drop bool) {
	want, held := m.ref[key]
	e := m.entryOf(key)
	before := m.cur[c].IndexLookups()
	saw, calls, handed := 0, 0, key
	// fn runs under the shard lock: it only records, the checks come after.
	got := m.tbl.UpdateBytesAfter(&m.cur[c], []byte(key), func(v *int, tc TimerControl[int]) {
		saw, handed = *v, tc.Key()
		calls++
		tc.Schedule(0, time.Hour)
		if drop && handed == key {
			tc.Delete()
		}
	})
	if handed != key {
		m.t.Fatalf("fn for %q was handed the entry of %q", key, handed)
	}
	if got != held || (held && (calls != 1 || saw != want)) || (!held && calls != 0) {
		m.t.Fatalf("UpdateBytesAfter(%q) = %v, fn ran %d times and saw %d; reference: held %v, value %d", key, got, calls, saw, held, want)
	}
	if d := m.cur[c].IndexLookups() - before; d > 1 || (!held && d != 1) {
		m.t.Fatalf("UpdateBytesAfter(%q) counted %d index lookups (held %v)", key, d, held)
	}
	if held && drop {
		m.dead = append(m.dead, e)
		delete(m.ref, key)
		held = false
	}
	plainSaw := 0
	if plain := m.tbl.UpdateBytes([]byte(key), func(v *int, _ TimerControl[int]) { plainSaw = *v }); plain != held || (held && plainSaw != saw) {
		m.t.Fatalf("UpdateBytes(%q) = %v seeing %d, after the cursor saw %d (held %v)", key, plain, plainSaw, saw, held)
	}
}

func (m *cursorModel) check() {
	if m.tbl.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, reference holds %d", m.tbl.Len(), len(m.ref))
	}
	for _, e := range m.dead {
		if e.next.Load() != e || e.digBucket != digDropped {
			m.t.Fatalf("dropped entry %q: hint %p, bucket %#x — not marked, or chained", e.key, e.next.Load(), e.digBucket)
		}
	}
	for key := range m.ref {
		e := m.entryOf(key)
		if e == nil || e.digBucket == digDropped {
			m.t.Fatalf("live key %q: entry %p missing or marked dropped", key, e)
		}
		if e.next.Load() == e {
			m.t.Fatalf("live entry %q carries the dropped mark", key)
		}
		if &m.tbl.shards[e.shard] != m.tbl.shardOf(key) {
			m.t.Fatalf("entry %q records shard %d, not the one its key hashes to", key, e.shard)
		}
	}
}

// runCursorScript interprets script: a header byte (bit 0 turns digests
// on, so both forms of dropLocked run) and then one op per step.
func runCursorScript(t *testing.T, script []byte) {
	m := &cursorModel{t: t, ref: map[string]int{}, script: script}
	cfg := Config[int]{Shards: 4}
	if m.next()&1 != 0 {
		cfg.DigestFunc = func(key string, v *int) (uint32, uint64) { return Hash32(key), uint64(*v) }
	}
	m.tbl = New(cfg)
	defer m.tbl.Close()
	for len(m.script) > 0 {
		op := m.next()
		c := int(op>>7) & 1
		switch op % 8 {
		case 0:
			m.upsert(cursorKey(m.next()))
		case 1:
			m.delete(cursorKey(m.next()))
		case 2:
			m.visit(c, cursorKey(m.next()), false)
		case 3: // a sweep in key order, absent keys included
			for k := byte(0); k < cursorKeys; k++ {
				m.visit(c, cursorKey(k), false)
			}
		case 4: // a sweep in another order: every key once, by an odd stride
			start, stride := m.next(), m.next()|1
			for i := byte(0); i < cursorKeys; i++ {
				m.visit(c, cursorKey(start+i*stride), false)
			}
		case 5:
			m.cur[c].Reset()
		case 6: // dropped by the closure the cursor ran
			m.visit(c, cursorKey(m.next()), true)
		case 7: // a new entry under an old key: the hint names the dead one
			key := cursorKey(m.next())
			m.delete(key)
			m.upsert(key)
			m.visit(c, key, false)
		}
		m.check()
	}
}

// cursorSeeds pin the shapes worth keeping: fill and sweep twice; delete
// and reinsert inside a taught chain; a key dropped by its own renewal,
// then the sweep resumed from the dropped entry.
var cursorSeeds = func() [][]byte {
	fill := []byte{0}
	for k := byte(0); k < cursorKeys; k++ {
		fill = append(fill, 0, k)
	}
	with := func(head byte, ops ...byte) []byte {
		s := append([]byte(nil), fill...)
		s[0] = head
		return append(s, ops...)
	}
	return [][]byte{
		with(0, 3, 3),
		with(1, 3, 3, 1, 7, 3, 0, 7, 3, 3),
		with(0, 3, 7, 9, 3, 3),
		with(1, 3, 6, 4, 2, 5, 3, 0, 4, 3),
		with(0, 3, 0x83, 4, 11, 7, 0x84, 3, 5, 3),
		with(1, 3, 5, 0x85, 3, 6, 31, 6, 0, 3, 3),
	}
}()

// TestCursorModel runs the pinned scripts, then seeded random ones.
func TestCursorModel(t *testing.T) {
	for _, s := range cursorSeeds {
		runCursorScript(t, s)
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 32+rng.Intn(512))
		rng.Read(script)
		runCursorScript(t, script)
	}
}

// FuzzCursor is the same check with the fuzzer writing the script.
func FuzzCursor(f *testing.F) {
	for _, s := range cursorSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<10 {
			t.Skip()
		}
		runCursorScript(t, script)
	})
}

// TestCursorLearnsTheSweep is the property the hint exists for: the first
// walk of a key order goes through the index, every later walk of the same
// order does not, and after k membership changes the next walk pays for
// about k of them and the one after for none.
func TestCursorLearnsTheSweep(t *testing.T) {
	tbl := New(Config[int]{Shards: 8})
	defer tbl.Close()
	const n = 500
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "peer\x00flow/%04d", i)
		tbl.Upsert(string(keys[i]), nil)
	}
	var c Cursor[int]
	sweep := func() (lookups uint64) {
		before := c.IndexLookups()
		for _, k := range keys {
			tbl.UpdateBytesAfter(&c, k, nil)
		}
		return c.IndexLookups() - before
	}
	if got := sweep(); got != n {
		t.Fatalf("first sweep: %d index lookups, want %d", got, n)
	}
	// The wrap from the last key to the first is learnt on the second walk.
	if got := sweep(); got != 1 {
		t.Fatalf("second sweep: %d index lookups, want 1 (the wrap)", got)
	}
	if got := sweep(); got != 0 {
		t.Fatalf("third sweep: %d index lookups, want 0", got)
	}
	// Ten keys leave: each costs its own failed lookup and its successor's.
	for i := 0; i < 10; i++ {
		tbl.Delete(string(keys[40*i+7]))
	}
	if got := sweep(); got != 20 {
		t.Fatalf("sweep after 10 deletes: %d index lookups, want 20", got)
	}
	// While they stay away only the absent keys themselves are looked up.
	if got := sweep(); got != 10 {
		t.Fatalf("second sweep after 10 deletes: %d index lookups, want 10", got)
	}
	// They come back as new entries: one lookup each, and one for each
	// successor whose predecessor is new and knows nothing yet.
	for i := 0; i < 10; i++ {
		tbl.Upsert(string(keys[40*i+7]), nil)
	}
	if got := sweep(); got != 20 {
		t.Fatalf("sweep after 10 reinstalls: %d index lookups, want 20", got)
	}
	if got := sweep(); got != 0 {
		t.Fatalf("sweep after healing: %d index lookups, want 0", got)
	}
}

func TestUpdateBytesAfterZeroAlloc(t *testing.T) {
	tbl := New(Config[int]{Shards: 4})
	defer tbl.Close()
	keys := [][]byte{[]byte("a\x00one"), []byte("a\x00two"), []byte("a\x00absent")}
	tbl.Upsert(string(keys[0]), nil)
	tbl.Upsert(string(keys[1]), nil)
	var c Cursor[int]
	fn := func(*int, TimerControl[int]) {}
	if allocs := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			tbl.UpdateBytesAfter(&c, k, fn)
		}
	}); allocs != 0 {
		t.Fatalf("UpdateBytesAfter allocates %.1f per sweep, want 0", allocs)
	}
}

// TestCursorConcurrentChurn sweeps through a cursor on one goroutine while
// another deletes and reinstalls a third of the keys, so hints on the
// sweeper's path keep pointing at entries being dropped under other
// shards' locks. Stable keys must resolve every time; a churned key
// resolves to nothing or to a value its churner wrote. Run under -race.
func TestCursorConcurrentChurn(t *testing.T) {
	tbl := New(Config[int]{Shards: 8})
	defer tbl.Close()
	const n, rounds = 96, 300
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "peer\x00flow/%03d", i)
		i := i
		tbl.Upsert(string(keys[i]), func(v *int, _ bool, _ TimerControl[int]) { *v = i })
	}
	churned := func(i int) bool { return i%3 == 1 }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; ; r++ {
			for i := range keys {
				if !churned(i) {
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
				tbl.Delete(string(keys[i]))
				tbl.Upsert(string(keys[i]), func(v *int, _ bool, _ TimerControl[int]) { *v = i + n*(r+1) })
			}
		}
	}()
	var c Cursor[int]
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			saw := -1
			ok := tbl.UpdateBytesAfter(&c, k, func(v *int, _ TimerControl[int]) { saw = *v })
			switch {
			case !churned(i) && (!ok || saw != i):
				t.Fatalf("round %d: stable key %d resolved %v to %d", r, i, ok, saw)
			case churned(i) && ok && saw%n != i:
				t.Fatalf("round %d: churned key %d resolved to %d, another key's value", r, i, saw)
			}
		}
	}
	close(stop)
	wg.Wait()
}
