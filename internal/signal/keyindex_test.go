package signal

import (
	"reflect"
	"testing"
)

// TestKeyIndex walks the slice-backed index through its contract: add is
// idempotent, remove of the last holder deletes the map key, and remove of
// an absent holder is a no-op.
func TestKeyIndex(t *testing.T) {
	ix := make(keyIndex)
	steps := []struct {
		op   string // add, remove
		key  string
		id   uint32
		want []uint32 // ix[key] afterwards
		keys int      // len(ix) afterwards
	}{
		{"add", "k", 2, []uint32{2}, 1},
		{"add", "k", 2, []uint32{2}, 1}, // duplicate add
		{"add", "k", 3, []uint32{2, 3}, 1},
		{"add", "k", 1, []uint32{2, 3, 1}, 1},
		{"add", "j", 1, []uint32{1}, 2},
		{"remove", "k", 9, []uint32{2, 3, 1}, 2}, // absent holder
		{"remove", "q", 1, nil, 2},               // absent key
		{"remove", "k", 2, []uint32{3, 1}, 2},
		{"remove", "k", 2, []uint32{3, 1}, 2}, // twice
		{"remove", "k", 1, []uint32{3}, 2},
		{"remove", "k", 3, nil, 1}, // last holder: the map key goes
		{"remove", "j", 1, nil, 0},
	}
	for i, s := range steps {
		if s.op == "add" {
			ix.add(s.key, s.id)
		} else {
			ix.remove(s.key, s.id)
		}
		if got := ix[s.key]; !reflect.DeepEqual(got, s.want) {
			t.Fatalf("step %d (%s %q %d): holders = %d, want %d", i, s.op, s.key, s.id, got, s.want)
		}
		if len(ix) != s.keys {
			t.Fatalf("step %d (%s %q %d): index holds %d keys, want %d", i, s.op, s.key, s.id, len(ix), s.keys)
		}
	}
}
