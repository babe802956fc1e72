package node

import (
	"bytes"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/signal"
)

// vtree builds a fanout^depth tree in virtual time and registers cleanup.
func vtree(t *testing.T, fanout, depth int, cfg signal.Config, link lossy.Config) (*clock.Virtual, *Tree) {
	t.Helper()
	v := clock.NewVirtual()
	cfg.Clock = v
	link.Clock = v
	tr, err := NewTree(fanout, depth, cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return v, tr
}

// TestTreeShape: a 3-ary depth-2 tree has 3 interior relays and 9 leaves.
func TestTreeShape(t *testing.T) {
	_, tr := vtree(t, 3, 2, fastConfig(signal.SS), cleanLink)
	if len(tr.Relays) != 3 {
		t.Fatalf("want 3 relays, got %d", len(tr.Relays))
	}
	if len(tr.Leaves) != 9 {
		t.Fatalf("want 9 leaves, got %d", len(tr.Leaves))
	}
	if got := len(tr.receivers()); got != 12 {
		t.Fatalf("want 12 state-holding nodes, got %d", got)
	}
}

// TestTreeStar: depth 1 degenerates to a star — no relays, direct
// fan-out from the root to every leaf.
func TestTreeStar(t *testing.T) {
	v, tr := vtree(t, 4, 1, fastConfig(signal.SS), cleanLink)
	if len(tr.Relays) != 0 || len(tr.Leaves) != 4 {
		t.Fatalf("want 0 relays + 4 leaves, got %d + %d", len(tr.Relays), len(tr.Leaves))
	}
	if err := tr.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "star install", func() bool { return tr.holds("k") == 4 })
}

// TestTreePropagatesToAllLeaves: one install at the root reaches every
// node of a 2-ary depth-3 tree (2 + 4 interior, 8 leaves).
func TestTreePropagatesToAllLeaves(t *testing.T) {
	v, tr := vtree(t, 2, 3, fastConfig(signal.SSER), cleanLink)
	if err := tr.Install("flow/1", []byte("10Mbps")); err != nil {
		t.Fatal(err)
	}
	total := len(tr.receivers()) // 14
	within(t, v, time.Second, "install reaches all nodes", func() bool { return tr.holds("flow/1") == total })
	for i, l := range tr.Leaves {
		got, ok := l.Get("flow/1")
		if !ok || !bytes.Equal(got, []byte("10Mbps")) {
			t.Fatalf("leaf %d holds %q, %v", i, got, ok)
		}
	}
	// Explicit removal cascades down every branch.
	if err := tr.Remove("flow/1"); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "removal clears the tree", func() bool { return tr.holds("flow/1") == 0 })
}

// TestTreeConvergesUnderLoss: reliable triggers repair per-edge losses
// independently on every branch.
func TestTreeConvergesUnderLoss(t *testing.T) {
	link := lossy.Config{Loss: 0.2, Delay: time.Millisecond, Seed: 17}
	v, tr := vtree(t, 2, 2, fastConfig(signal.SSRTR), link)
	if err := tr.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	total := len(tr.receivers())
	within(t, v, 10*time.Second, "tree converges through 20% loss", func() bool { return tr.holds("k") == total })
}

// TestFanRelayValidation: constructor guards.
func TestFanRelayValidation(t *testing.T) {
	if _, err := NewFanRelay(nil, nil, nil, signal.Config{}); err == nil {
		t.Fatal("nil conns must be rejected")
	}
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Endpoint("a"), nw.Endpoint("b")
	defer a.Close()
	defer b.Close()
	if _, err := NewFanRelay(a, b, nil, signal.Config{Clock: v}); err == nil {
		t.Fatal("empty next list must be rejected")
	}
	if _, err := NewRelay(a, b, nil, signal.Config{Clock: v}); err == nil {
		t.Fatal("nil next must be rejected")
	}
}

// TestTreeValidation: constructor guards.
func TestTreeValidation(t *testing.T) {
	if _, err := NewTree(0, 2, signal.Config{}, lossy.Config{}); err == nil {
		t.Fatal("fanout 0 must be rejected")
	}
	if _, err := NewTree(2, 0, signal.Config{}, lossy.Config{}); err == nil {
		t.Fatal("depth 0 must be rejected")
	}
	if _, err := NewTree(1<<11, 2, signal.Config{}, lossy.Config{}); err == nil {
		t.Fatal("oversized tree must be rejected")
	}
}

// holds reports how many nodes currently hold state for key.
func (t *Tree) holds(key string) int {
	n := 0
	for _, r := range t.receivers() {
		if _, ok := r.Get(key); ok {
			n++
		}
	}
	return n
}

// receivers returns every state-holding node, breadth-first: interior
// relays' upstream receivers, then the leaves.
func (t *Tree) receivers() []*signal.Receiver {
	out := make([]*signal.Receiver, 0, len(t.Relays)+len(t.Leaves))
	for _, r := range t.Relays {
		out = append(out, r.Receiver())
	}
	return append(out, t.Leaves...)
}
