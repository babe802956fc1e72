package signal

import (
	"reflect"
	"testing"
)

// TestKeyIndex walks the slice-backed index through its contract: add is
// idempotent, remove of the last holder deletes the map key, remove of an
// absent holder is a no-op, and lookup returns a sorted copy.
func TestKeyIndex(t *testing.T) {
	ix := keyIndex{m: make(map[string][]string)}
	steps := []struct {
		op      string // add, remove
		key, ck string
		want    []string // lookup(key) afterwards
		keys    int      // len(ix.m) afterwards
	}{
		{"add", "k", "b\x00k", []string{"b\x00k"}, 1},
		{"add", "k", "b\x00k", []string{"b\x00k"}, 1}, // duplicate add
		{"add", "k", "c\x00k", []string{"b\x00k", "c\x00k"}, 1},
		{"add", "k", "a\x00k", []string{"a\x00k", "b\x00k", "c\x00k"}, 1}, // sorted, not insertion order
		{"add", "j", "a\x00j", []string{"a\x00j"}, 2},
		{"remove", "k", "z\x00k", []string{"a\x00k", "b\x00k", "c\x00k"}, 2}, // absent holder
		{"remove", "q", "a\x00q", nil, 2},                                    // absent key
		{"remove", "k", "b\x00k", []string{"a\x00k", "c\x00k"}, 2},
		{"remove", "k", "b\x00k", []string{"a\x00k", "c\x00k"}, 2}, // twice
		{"remove", "k", "a\x00k", []string{"c\x00k"}, 2},
		{"remove", "k", "c\x00k", nil, 1}, // last holder: the map key goes
		{"remove", "j", "a\x00j", nil, 0},
	}
	for i, s := range steps {
		if s.op == "add" {
			ix.add(s.key, s.ck)
		} else {
			ix.remove(s.key, s.ck)
		}
		if got := ix.lookup(s.key); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("step %d (%s %q %q): lookup = %q, want %q", i, s.op, s.key, s.ck, got, s.want)
		}
		if len(ix.m) != s.keys {
			t.Fatalf("step %d (%s %q %q): index holds %d keys, want %d", i, s.op, s.key, s.ck, len(ix.m), s.keys)
		}
	}

	// The caller may keep and scribble on what lookup returned.
	ix.add("k", "b\x00k")
	ix.add("k", "a\x00k")
	got := ix.lookup("k")
	got[0], got[1] = "x", "y"
	if again := ix.lookup("k"); !reflect.DeepEqual(again, []string{"a\x00k", "b\x00k"}) {
		t.Fatalf("lookup after the caller overwrote its copy = %q", again)
	}
}
