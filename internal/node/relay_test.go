package node

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/signal"
)

// cleanLink is an unimpaired in-memory link.
var cleanLink = lossy.Config{}

// vchain builds an N-node chain in virtual time and registers cleanup.
// The same clock drives every hop's timers and every link's delays, so the
// whole multi-hop run is deterministic and sleeps nothing.
func vchain(t *testing.T, nodes int, cfg signal.Config, link lossy.Config) (*clock.Virtual, *Chain) {
	t.Helper()
	v := clock.NewVirtual()
	cfg.Clock = v
	link.Clock = v
	c, err := NewChain(nodes, cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return v, c
}

// within advances virtual time until cond holds or the test fails.
func within(t *testing.T, v *clock.Virtual, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	if !v.RunUntil(cond, time.Millisecond, budget) {
		t.Fatalf("virtual time ran out waiting for %s", what)
	}
}

// TestChainPropagatesInstallAndUpdate: a 3-node chain (origin, relay,
// tail) carries installs and updates hop by hop to the tail.
func TestChainPropagatesInstallAndUpdate(t *testing.T) {
	v, c := vchain(t, 3, fastConfig(signal.SS), cleanLink)
	if err := c.Install("flow/1", []byte("10Mbps")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install reaches all hops", func() bool { return c.Holds("flow/1") == 2 })
	got, ok := c.Tail.Get("flow/1")
	if !ok || !bytes.Equal(got, []byte("10Mbps")) {
		t.Fatalf("tail holds %q, %v", got, ok)
	}
	if err := c.Origin.ss.Session(c.first).Update("flow/1", []byte("20Mbps")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "update reaches the tail", func() bool {
		got, _ := c.Tail.Get("flow/1")
		return bytes.Equal(got, []byte("20Mbps"))
	})
}

// TestChainExplicitRemovalCascades: with SS+ER the removal signal chases
// the install down the chain, clearing every hop well before timeout.
func TestChainExplicitRemovalCascades(t *testing.T) {
	v, c := vchain(t, 3, fastConfig(signal.SSER), cleanLink)
	if err := c.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install", func() bool { return c.Holds("k") == 2 })
	before := v.Elapsed()
	if err := c.Remove("k"); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "removal cascades", func() bool { return c.Holds("k") == 0 })
	if elapsed := v.Elapsed() - before; elapsed > fastConfig(signal.SSER).Timeout {
		t.Fatalf("explicit removal took %v, should beat the timeout chain", elapsed)
	}
}

// TestChainSilentDeathDecaysHopByHop: killing the origin without removal
// lets soft state clean itself up at every hop (paper §II: the soft-state
// safety net needs no signaling at all).
func TestChainSilentDeathDecaysHopByHop(t *testing.T) {
	v, c := vchain(t, 3, fastConfig(signal.SS), cleanLink)
	if err := c.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install", func() bool { return c.Holds("k") == 2 })
	c.Origin.Close()
	within(t, v, time.Second, "decay to nothing", func() bool { return c.Holds("k") == 0 })
}

// TestChainEventualConsistencyUnderLoss is the core convergence scenario:
// a 3-node relay chain over 20%-loss links must still converge — every
// installed key reaches every hop (reliable triggers repair the losses),
// and reliable removal eventually clears every hop (true removal).
func TestChainEventualConsistencyUnderLoss(t *testing.T) {
	link := lossy.Config{Loss: 0.2, Delay: time.Millisecond, Seed: 42}
	v, c := vchain(t, 3, fastConfig(signal.SSRTR), link)
	const keys = 20
	for i := 0; i < keys; i++ {
		if err := c.Install(fmt.Sprintf("flow/%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	within(t, v, 10*time.Second, "all keys on all hops despite 20% loss", func() bool {
		for i := 0; i < keys; i++ {
			if c.Holds(fmt.Sprintf("flow/%02d", i)) != 2 {
				return false
			}
		}
		return true
	})
	// True removal: explicit reliable removals propagate to every hop.
	for i := 0; i < keys; i++ {
		if err := c.Remove(fmt.Sprintf("flow/%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	within(t, v, 10*time.Second, "removals clear all hops despite 20% loss", func() bool {
		for _, r := range c.Receivers() {
			if r.Len() != 0 {
				return false
			}
		}
		return true
	})
}

// TestChainPureSoftStateUnderLoss: even with no reliability mechanisms at
// all (pure SS), refresh repetition converges the chain through 20% loss,
// and silent removal decays it — the paper's baseline protocol running
// live end to end.
func TestChainPureSoftStateUnderLoss(t *testing.T) {
	link := lossy.Config{Loss: 0.2, Delay: time.Millisecond, Seed: 7}
	v, c := vchain(t, 3, fastConfig(signal.SS), link)
	if err := c.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, 10*time.Second, "refresh repetition converges the chain", func() bool { return c.Holds("k") == 2 })
	if err := c.Remove("k"); err != nil {
		t.Fatal(err)
	}
	within(t, v, 10*time.Second, "silent removal decays the chain", func() bool { return c.Holds("k") == 0 })
}

// TestChainFalseRemovalRepairedEndToEnd: false removal injected at the
// middle relay propagates the removal downstream, the notification
// upstream, and the origin's repair re-installs the state everywhere
// (paper §IV false-removal scenario).
func TestChainFalseRemovalRepairedEndToEnd(t *testing.T) {
	v, c := vchain(t, 3, fastConfig(signal.SSRT), cleanLink)
	if err := c.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install", func() bool { return c.Holds("k") == 2 })
	if !c.Relays[0].Receiver().InjectFalseRemoval("k") {
		t.Fatal("InjectFalseRemoval found no state at the relay")
	}
	// The false removal must first propagate downstream (tail loses the
	// key via the relayed removal or its own timeout), then the origin's
	// repair must re-install the full chain.
	within(t, v, time.Second, "repair restores every hop", func() bool {
		if c.Holds("k") != 2 {
			return false
		}
		got, ok := c.Tail.Get("k")
		return ok && bytes.Equal(got, []byte("v"))
	})
	if c.Relays[0].Relayed() < 3 { // install + removal + re-install
		t.Fatalf("relay forwarded only %d operations", c.Relays[0].Relayed())
	}
}

// TestFiveHopChain is the acceptance scenario: a 6-node (5-hop) chain
// over lossy links propagates install, refresh, and removal end to end.
func TestFiveHopChain(t *testing.T) {
	link := lossy.Config{Loss: 0.1, Delay: time.Millisecond, Seed: 99}
	cfg := fastConfig(signal.SSRTR)
	cfg.SummaryRefresh = true // refresh path: per-peer summaries hop by hop
	v, c := vchain(t, 6, cfg, link)
	const keys = 10
	for i := 0; i < keys; i++ {
		if err := c.Install(fmt.Sprintf("flow/%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	hops := len(c.Receivers()) // 5 state-holding hops
	within(t, v, 10*time.Second, "installs reach all 5 hops", func() bool {
		for i := 0; i < keys; i++ {
			if c.Holds(fmt.Sprintf("flow/%d", i)) != hops {
				return false
			}
		}
		return true
	})
	// Refresh: state must survive several timeout windows on every hop.
	v.Run(3 * cfg.Timeout)
	for i := 0; i < keys; i++ {
		if got := c.Holds(fmt.Sprintf("flow/%d", i)); got != hops {
			t.Fatalf("key %d decayed to %d of %d hops despite refreshes", i, got, hops)
		}
	}
	// Removal: reliable removals clear the whole chain.
	for i := 0; i < keys; i++ {
		if err := c.Remove(fmt.Sprintf("flow/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	within(t, v, 10*time.Second, "removals clear all 5 hops", func() bool {
		for _, r := range c.Receivers() {
			if r.Len() != 0 {
				return false
			}
		}
		return true
	})
}
