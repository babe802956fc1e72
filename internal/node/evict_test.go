package node

import (
	"bytes"
	"testing"
	"time"

	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

// drainEvents empties the node's observability channel.
func drainEvents(n *Node) []signal.Event {
	var out []signal.Event
	for {
		select {
		case ev := <-n.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestNodeEvictsIdlePeers: with PeerIdleTimeout set, a peer whose keys
// are all withdrawn falls out of the per-destination table after the
// quiet period — bounding the table under churn — while peers still
// holding state are untouched. A returning peer is re-admitted with its
// sequence space resumed, so its fresh triggers are not mistaken for
// stale retransmissions.
func TestNodeEvictsIdlePeers(t *testing.T) {
	cfg := fastConfig(signal.SSER)
	cfg.PeerIdleTimeout = 500 * time.Millisecond
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	v, n, rcvs, addrs := fanout(t, cfg, 3)
	evictions := func() (total float64) {
		for _, s := range reg.Gather() {
			if s.Name == "softstate_peer_evictions_total" {
				total += s.Value
			}
		}
		return total
	}

	for i, a := range addrs {
		if err := n.Install(a, "k", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(50 * time.Millisecond)
	for i, r := range rcvs {
		if r.Len() != 1 {
			t.Fatalf("peer %d holds %d keys, want 1", i, r.Len())
		}
	}
	if err := n.Remove(addrs[2], "k"); err != nil {
		t.Fatal(err)
	}
	v.Run(50 * time.Millisecond)
	if rcvs[2].Len() != 0 {
		t.Fatal("explicit removal did not reach peer 2")
	}
	var lastSeq uint64
	for _, ev := range drainEvents(n) {
		if ev.Peer != nil && ev.Peer.String() == addrs[2].String() && ev.Seq > lastSeq {
			lastSeq = ev.Seq
		}
	}

	// Quiet period passes: only the empty session is evicted.
	v.Run(2 * time.Second)
	if got := len(n.ss.Peers()); got != 2 {
		t.Fatalf("peer table holds %d sessions after idle period, want 2", got)
	}
	if got := evictions(); got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
	}
	if rcvs[0].Len() != 1 || rcvs[1].Len() != 1 {
		t.Fatal("active peers lost state across the eviction scan")
	}

	// The evicted peer returns: a new session is created transparently
	// and its sequence space resumes past the retired one.
	if err := n.Install(addrs[2], "k", []byte("back")); err != nil {
		t.Fatal(err)
	}
	v.Run(100 * time.Millisecond)
	if got, ok := rcvs[2].Get("k"); !ok || !bytes.Equal(got, []byte("back")) {
		t.Fatalf("returning peer state = %q, %v", got, ok)
	}
	if got := len(n.ss.Peers()); got != 3 {
		t.Fatalf("peer table holds %d sessions after return, want 3", got)
	}
	resumed := false
	for _, ev := range drainEvents(n) {
		if ev.Kind == signal.EventInstalled && ev.Peer != nil &&
			ev.Peer.String() == addrs[2].String() {
			if ev.Seq <= lastSeq {
				t.Fatalf("returning peer restarted its sequence space: seq %d after %d", ev.Seq, lastSeq)
			}
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no install event for the returning peer")
	}

	// The returning peer holds a live key again, so further idle scans
	// must leave it (and everyone else) alone.
	v.Run(time.Second)
	if got := evictions(); got != 1 {
		t.Fatalf("evictions = %v after return, want still 1", got)
	}
	if got := len(n.ss.Peers()); got != 3 {
		t.Fatalf("peer table shrank to %d with live keys held", got)
	}
}
