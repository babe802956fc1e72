package signal

import (
	"fmt"
	"testing"
	"time"

	"softstate/internal/statetable"
)

// TestCheckInvariantsCleanAcrossVariants: a converged sender/receiver
// pair violates no invariant under any of the five protocols, through
// install, steady state, and partial removal.
func TestCheckInvariantsCleanAcrossVariants(t *testing.T) {
	for _, proto := range []Protocol{SS, SSER, SSRT, SSRTR, HS} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c := vEndpoints(t, proto, 0)
			for i := 0; i < 8; i++ {
				if err := c.snd.Install(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			c.within(time.Second, "installs", func() bool { return c.rcv.Len() == 8 })
			audit := func(when string) {
				c.t.Helper()
				if bad := c.snd.CheckInvariants(); len(bad) != 0 {
					t.Fatalf("sender invariants %s: %v", when, bad)
				}
				if bad := c.rcv.CheckInvariants(); len(bad) != 0 {
					t.Fatalf("receiver invariants %s: %v", when, bad)
				}
			}
			audit("after install")
			c.run(200 * time.Millisecond) // refresh / probe steady state
			audit("in steady state")
			for i := 0; i < 4; i++ {
				if err := c.snd.Remove(fmt.Sprintf("k%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			c.within(time.Second, "removals", func() bool { return c.rcv.Len() == 4 })
			c.run(200 * time.Millisecond) // drain removal acks / retransmits
			audit("after removal")
		})
	}
}

// TestCheckInvariantsDetectsCorruption: hand-broken internal state is
// reported, proving the checks bite.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	c := vEndpoints(t, SSRTR, 0)
	if err := c.snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "install", func() bool { return c.rcv.Len() == 1 })

	p := c.rcv.peers.byAddr.get(c.sndAddr.String())

	// Receiver: skew the sender's entry count against the table.
	p.entries++
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver peer entry-count skew not detected")
	}
	p.entries--

	// Receiver: skew the sender's fold against its entry's version.
	p.fold++
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver peer fold skew not detected")
	}
	p.fold--

	// Receiver: file the entry under a peer that is not its sender.
	other, _ := c.rcv.peers.install(nil, testAddr("stranger"), 0)
	setPeer := func(id uint32) {
		c.rcv.tbl.Update(RKey(c.sndAddr, "k"), func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) { e.peer = id })
	}
	setPeer(other.id)
	p.entries--
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver entry naming another sender's record not detected")
	}
	setPeer(p.id)
	p.entries++

	// Receiver: a record left behind with nothing to hold.
	other.entries--
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver empty peer record not detected")
	}
	c.rcv.peers.reap(other)

	// Receiver: the entry names a datagram lease its peer does not have.
	setLease := func(id uint32) {
		c.rcv.tbl.Update(RKey(c.sndAddr, "k"), func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) { e.aux = id })
	}
	setLease(7)
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver entry naming a lease that does not exist not detected")
	}
	// Receiver: a lease that counts a member more than the entries naming
	// it, and one kept although nothing names it.
	l := &lease{fold: p.fold, n: 1, members: 2}
	p.leases.file(l)
	setLease(l.id)
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver lease member-count skew not detected")
	}
	l.members = 1
	if bad := c.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("a lease with its one member reports: %v", bad)
	}
	// Receiver: an intact lease whose member holds another version than
	// the lease's fold names.
	c.rcv.tbl.Update(RKey(c.sndAddr, "k"), func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) { e.lastSeq-- })
	if bad := c.rcv.CheckInvariants(); len(bad) < 2 {
		t.Fatalf("a member at another version than its lease and record fold reports only %v", bad)
	}
	c.rcv.tbl.Update(RKey(c.sndAddr, "k"), func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) { e.lastSeq++ })
	setLease(0)
	if bad := c.rcv.CheckInvariants(); len(bad) == 0 {
		t.Fatal("receiver lease that no entry names not detected")
	}
	l.members = 0
	p.leases.breakLease(l)

	// Sender: skew the live gauge against the table census.
	c.snd.ss.live.Add(1)
	if bad := c.snd.CheckInvariants(); len(bad) == 0 {
		t.Fatal("sender live-gauge skew not detected")
	}
	c.snd.ss.live.Add(-1)

	// Sender: skew one session's tabled counter (the eviction guard).
	c.snd.sess.tabled.Add(1)
	if bad := c.snd.CheckInvariants(); len(bad) == 0 {
		t.Fatal("sender per-session tabled skew not detected")
	}
	c.snd.sess.tabled.Add(-1)

	// Sender: skew one session's fold against its live keys.
	c.snd.sess.fold.Add(1)
	if bad := c.snd.CheckInvariants(); len(bad) == 0 {
		t.Fatal("sender per-session fold skew not detected")
	}
	c.snd.sess.fold.Add(^uint64(0))

	// Sender: the session its entry names by id is not filed.
	ss := c.snd.ss
	ss.byIDMu.Lock()
	delete(ss.byID, c.snd.sess.id)
	ss.byIDMu.Unlock()
	if bad := c.snd.CheckInvariants(); len(bad) == 0 {
		t.Fatal("sender entry naming an unfiled session not detected")
	}
	ss.file(c.snd.sess)

	// All repaired: clean again.
	if bad := append(c.snd.CheckInvariants(), c.rcv.CheckInvariants()...); len(bad) != 0 {
		t.Fatalf("repaired state still reports: %v", bad)
	}
}
