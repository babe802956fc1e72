package statetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// indexModel drives a shard's index, a Go-map reference and the
// pointer-slot reference index side by side from a byte script. The test,
// not maphash, decides every key's tag, so a script can put all keys on
// one tag and one home slot — at slot 0, or at the array's last slot
// whatever its size — and exercise the longest probe runs, the wrap at the
// array end, the backward shift across that wrap, and growth in the middle
// of a run. The map checks what each key finds; the pointer index checks
// that every key sits in the same slot, which is the order Range walks.
// One interpreter serves the seeded scripts and the fuzz target.
type indexModel struct {
	t      *testing.T
	sh     *shard[int]
	ref    map[string]uint32 // key → entry id
	ptr    refIndex
	base   uint32 // tag of key 0
	spread uint32 // keys cycle through this many consecutive tags
	script []byte
}

const modelKeys = 64

func (m *indexModel) next() byte {
	if len(m.script) == 0 {
		return 0
	}
	b := m.script[0]
	m.script = m.script[1:]
	return b
}

// keyOf names key k of the universe and gives the tag the script's header
// files it under.
func (m *indexModel) keyOf(k uint32) (string, uint32) {
	return fmt.Sprintf("key/%02d", k), m.base + k%m.spread
}

func (m *indexModel) key() (string, uint32) { return m.keyOf(uint32(m.next()) % modelKeys) }

// probeLen is how many slots a lookup of the entry filed as (tag, id)
// reads: its distance from the home slot, plus one. Test-only, so the
// lookup itself counts nothing.
func (ix *index) probeLen(tag, id uint32) int {
	mask := uint32(len(ix.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		if ix.slots[i].id == id {
			return int((i-tag)&mask) + 1
		}
	}
}

// check compares the index with both references and audits the slot
// array.
func (m *indexModel) check() {
	ix := &m.sh.idx
	if ix.n != len(m.ref) {
		m.t.Fatalf("n = %d, reference holds %d", ix.n, len(m.ref))
	}
	if len(ix.slots)&(len(ix.slots)-1) != 0 || ix.n*2 > len(ix.slots) {
		m.t.Fatalf("%d entries in %d slots: not a power of two at most half full", ix.n, len(ix.slots))
	}
	for key, id := range m.ref {
		tag := m.sh.ents.at(id).tag
		if got, _ := m.sh.find(tag, key); got != id {
			m.t.Fatalf("find(%q) = %d, reference holds %d", key, got, id)
		}
		if got, _ := m.sh.findBytes(tag, []byte(key)); got != id {
			m.t.Fatalf("findBytes(%q) = %d, reference holds %d", key, got, id)
		}
	}
	if len(m.ptr.slots) != len(ix.slots) {
		m.t.Fatalf("%d slots, the pointer index %d", len(ix.slots), len(m.ptr.slots))
	}
	for i, s := range ix.slots {
		want := ""
		if p := m.ptr.slots[i].e; p != nil {
			want = p.key
		}
		got := ""
		if s.id != 0 {
			got = m.sh.ents.at(s.id).key
		}
		if got != want {
			m.t.Fatalf("slot %d holds %q, the pointer index %q", i, got, want)
		}
	}
	// No empty slot inside any probe run: an occupied slot d slots past
	// its home must close a run of more than d occupied slots. Half the
	// array is empty, so the scan can start just after an empty slot and
	// see every run whole, the one that wraps included.
	mask := len(ix.slots) - 1
	start := 0
	for ix.slots[start].id != 0 {
		start++
	}
	occupied, run := 0, 0
	for k := 1; k <= len(ix.slots); k++ {
		i := (start + k) & mask
		s := ix.slots[i]
		if s.id == 0 {
			run = 0
			continue
		}
		occupied++
		run++
		e := m.sh.ents.at(s.id)
		if s.tag != e.tag {
			m.t.Fatalf("slot %d carries tag %#x, its entry %q was filed under %#x", i, s.tag, e.key, e.tag)
		}
		if dist := (i - int(s.tag)) & mask; dist >= run {
			m.t.Fatalf("slot %d holds %q %d slots past its home, behind an empty slot", i, e.key, dist)
		}
	}
	if occupied != ix.n {
		m.t.Fatalf("%d slots occupied, n = %d", occupied, ix.n)
	}
}

// runIndexScript interprets script: five header bytes choose how keys map
// to tags, then each op is put, delete, or delete-then-reinsert of one key.
func runIndexScript(t *testing.T, script []byte) {
	m := &indexModel{t: t, sh: &shard[int]{idx: newIndex()}, ref: make(map[string]uint32),
		ptr: newRefIndex(), script: script}
	m.spread = 1 << (m.next() % 7) // 1 … 64 distinct tags
	for i := 0; i < 4; i++ {
		m.base = m.base<<8 | uint32(m.next())
	}
	m.check()
	ptrs := map[string]*refEntry{}
	for len(m.script) > 0 {
		op := m.next()
		key, tag := m.key()
		id, ok := m.ref[key]
		switch {
		case !ok && op%4 == 3: // delete of an absent key
			stray, _ := m.sh.ents.alloc()
			if m.sh.idx.del(tag, stray) || m.ptr.del(&refEntry{key: key, tag: tag}) {
				t.Fatalf("del reported absent %q present", key)
			}
			m.sh.ents.release(stray, m.sh.ents.at(stray))
		case !ok:
			id, e := m.sh.ents.alloc()
			e.key, e.tag = key, tag
			m.sh.idx.put(tag, id)
			m.ref[key] = id
			ptrs[key] = &refEntry{key: key, tag: tag}
			m.ptr.put(ptrs[key])
		case op%4 == 0: // delete, then file the same key again
			m.sh.idx.del(tag, id)
			m.ptr.del(ptrs[key])
			m.absent(key, tag)
			m.sh.idx.put(tag, id)
			m.ptr.put(ptrs[key])
		default:
			if !m.sh.idx.del(tag, id) || !m.ptr.del(ptrs[key]) {
				t.Fatalf("del reported %q absent", key)
			}
			m.sh.ents.release(id, m.sh.ents.at(id))
			delete(m.ref, key)
			m.absent(key, tag)
		}
		m.check()
	}
	for k := uint32(0); k < modelKeys; k++ {
		if key, tag := m.keyOf(k); m.ref[key] == 0 {
			m.absent(key, tag)
		}
	}
}

// absent asserts key is unreachable.
func (m *indexModel) absent(key string, tag uint32) {
	if got, _ := m.sh.find(tag, key); got != 0 {
		m.t.Fatalf("find(%q) finds %d after its delete", key, got)
	}
	if got, _ := m.sh.findBytes(tag, []byte(key)); got != 0 {
		m.t.Fatalf("findBytes(%q) finds %d after its delete", key, got)
	}
}

// indexSeeds are script headers worth pinning: (spread, base) pairs that
// put every key on slot 0, on the last slot of any array size, and on a
// few homes either side of the wrap.
var indexSeeds = [][]byte{
	{0, 0, 0, 0, 0},             // one tag, home slot 0
	{0, 0xFF, 0xFF, 0xFF, 0xFF}, // one tag, home at the array's last slot
	{2, 0xFF, 0xFF, 0xFF, 0xFD}, // four tags straddling the wrap
	{6, 0x9E, 0x37, 0x79, 0xB9}, // a tag per key
}

// TestIndexModel runs seeded random scripts under each pinned header.
func TestIndexModel(t *testing.T) {
	for _, head := range indexSeeds {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			body := make([]byte, 64+rng.Intn(1024))
			rng.Read(body)
			runIndexScript(t, append(append([]byte(nil), head...), body...))
		}
	}
}

// FuzzIndex is the same check with the fuzzer writing header and script.
// The pointer index's slot order is Range's order, so a change to
// placement or probe order fails here.
func FuzzIndex(f *testing.F) {
	fill := make([]byte, 0, 2*modelKeys)
	for k := byte(0); k < modelKeys; k++ {
		fill = append(fill, 1, k) // put every key: four doublings mid-run
	}
	for _, head := range indexSeeds {
		f.Add(append(append([]byte(nil), head...), fill...))
	}
	// Fill, then delete from the front of the run and reinsert in place.
	f.Add(append(append([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF}, fill...), 1, 0, 1, 1, 0, 2, 1, 0, 3, 5, 0, 63))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<11 {
			t.Skip()
		}
		runIndexScript(t, script)
	})
}

// TestIndexFloodBounded is the hostile install: 50,000 structured keys
// chosen — as anyone can, FNV-1a being public — to land on one shard of a
// 16-shard table. The shard is theirs to fill, but lookups in it must stay
// short, and slot order must depend on the table's seed, not on anything
// the sender can compute.
func TestIndexFloodBounded(t *testing.T) {
	const flood, shards = 50_000, 16
	keys := make([]string, 0, flood)
	for i := 0; len(keys) < flood; i++ {
		if key := fmt.Sprintf("198.51.100.7:4242\x00%07d", i); Hash32(key)&(shards-1) == 3 {
			keys = append(keys, key)
		}
	}
	order := func() []string {
		tbl := New(Config[int]{Shards: shards})
		defer tbl.Close()
		for _, key := range keys {
			tbl.Upsert(key, nil)
		}
		ix := &tbl.shards[3].idx
		if ix.n != flood {
			t.Fatalf("shard 3 holds %d of the %d keys aimed at it", ix.n, flood)
		}
		probes := 0
		for _, s := range ix.slots {
			if s.id != 0 {
				probes += ix.probeLen(s.tag, s.id)
			}
		}
		if mean := float64(probes) / flood; mean >= 3 {
			t.Fatalf("mean probe length %.2f over %d flooded keys, want < 3", mean, flood)
		} else {
			t.Logf("mean probe length %.2f in %d slots", mean, len(ix.slots))
		}
		return tbl.keys()
	}
	if slices.Equal(order(), order()) {
		t.Fatal("two tables walk the same keys in the same order: slot placement is not seeded")
	}
}
