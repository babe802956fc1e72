package signal

import (
	"bytes"
	"testing"

	"softstate/internal/wire"
)

// matches lists the (peer, key) table keys holding state for key, in the
// address order Get and InjectFalseRemoval try the senders in.
func (r *Receiver) matches(key string) []string {
	var out []string
	for _, p := range r.peers.sorted() {
		if _, ok := r.tbl.Get(tableKey(p.id, key)); ok {
			out = append(out, tableKey(p.id, key))
		}
	}
	return out
}

// TestKeyIndex is the contract of the any-sender lookups, which once went
// through a key index and now try each peer record in address order:
// several senders hold one key side by side, Get answers with the holder
// whose address sorts first whatever order they installed in, a holder that
// drops the key is gone from the answer while the rest stay, a sender that
// installs the key twice still holds it once, and InjectFalseRemoval takes
// it from every holder and from nobody else.
func TestKeyIndex(t *testing.T) {
	g := newSummaryRig(t)
	a, b, c := testAddr("10.0.0.1:7000"), testAddr("10.0.0.2:7000"), testAddr("10.0.0.3:7000")
	trigger := func(from testAddr, key, value string) {
		g.frame(from, wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: key, Value: []byte(value)})
	}
	expect := func(what, key, want string, holders int) {
		t.Helper()
		got, ok := g.rcv.Get(key)
		if ok != (holders > 0) || !bytes.Equal(got, []byte(want)) {
			t.Fatalf("%s: Get(%q) = %q, %v; want %q", what, key, got, ok, want)
		}
		if n := len(g.rcv.matches(key)); n != holders {
			t.Fatalf("%s: %d senders hold %q, want %d", what, n, key, holders)
		}
		if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("%s: %v", what, bad)
		}
	}
	expect("empty", "k", "", 0)
	trigger(b, "k", "from-b")
	expect("one holder", "k", "from-b", 1)
	trigger(b, "k", "from-b") // the same holder again
	expect("duplicate install", "k", "from-b", 1)
	trigger(c, "k", "from-c")
	expect("a later address does not come first", "k", "from-b", 2)
	trigger(a, "k", "from-a")
	expect("an earlier address does", "k", "from-a", 3)
	trigger(a, "j", "other")
	expect("another key", "j", "other", 1)

	g.frame(testAddr("10.0.0.9:7000"), wire.Message{Type: wire.TypeRemoval, Seq: 1, Key: "k"}) // not a holder
	g.frame(a, wire.Message{Type: wire.TypeRemoval, Seq: 1, Key: "q"})                         // not a key
	expect("removals that name nothing held", "k", "from-a", 3)
	g.frame(a, wire.Message{Type: wire.TypeRemoval, Seq: 1, Key: "k"})
	expect("first holder gone", "k", "from-b", 2)
	g.frame(a, wire.Message{Type: wire.TypeRemoval, Seq: 1, Key: "k"}) // twice
	expect("removed twice", "k", "from-b", 2)
	if v, ok := g.rcv.GetFrom(c, "k"); !ok || string(v) != "from-c" {
		t.Fatalf("GetFrom(c) = %q, %v", v, ok)
	}

	if !g.rcv.InjectFalseRemoval("k") {
		t.Fatal("InjectFalseRemoval found no holder")
	}
	expect("false removal takes every holder", "k", "", 0)
	expect("and no other key", "j", "other", 1)
	if g.rcv.InjectFalseRemoval("k") {
		t.Fatal("InjectFalseRemoval found a holder of a key nobody holds")
	}
	if n := g.rcv.NumPeers(); n != 1 {
		t.Fatalf("%d peer records left, want a's alone", n)
	}
}
