package signal

import (
	"net"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
)

// vctx is a virtual-time test harness: one clock driving a connected
// sender/receiver pair over a lossy pipe. The ported sleep/poll tests run
// the identical protocol code paths as the old wall-clock versions, but
// deterministically and in microseconds of wall time: waits advance the
// virtual clock instead of sleeping.
type vctx struct {
	t       *testing.T
	clk     *clock.Virtual
	snd     *Sender
	rcv     *Receiver
	sndAddr net.Addr // source address the receiver sees for the sender
	sndConn net.PacketConn
}

// vEndpoints builds a virtual-time sender/receiver pair; cfg mutators run
// before the endpoints are created.
func vEndpoints(t *testing.T, proto Protocol, loss float64, mutate ...func(*Config)) *vctx {
	t.Helper()
	v := clock.NewVirtual()
	a, b, err := lossy.Pipe(lossy.Config{Loss: loss, Delay: time.Millisecond, Seed: 99, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(proto)
	cfg.Clock = v
	for _, m := range mutate {
		m(&cfg)
	}
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &vctx{t: t, clk: v, snd: snd, rcv: rcv, sndAddr: a.LocalAddr(), sndConn: a}
	t.Cleanup(func() {
		snd.Close()
		rcv.Close()
	})
	return c
}

// within advances virtual time (in millisecond steps) until cond holds,
// failing the test once budget virtual time has elapsed.
func (c *vctx) within(budget time.Duration, what string, cond func() bool) {
	c.t.Helper()
	if !c.clk.RunUntil(cond, time.Millisecond, budget) {
		c.t.Fatalf("virtual time ran out waiting for %s", what)
	}
}

// run advances virtual time by d.
func (c *vctx) run(d time.Duration) { c.clk.Run(d) }

// vSenderOnly builds a virtual-time sender whose peer end is drained by a
// bare read loop (no Receiver), for tests that only inspect sender-side
// traffic counters.
func vSenderOnly(t *testing.T, cfg Config) (*clock.Virtual, *Sender) {
	t.Helper()
	v := clock.NewVirtual()
	cfg.Clock = v
	a, b, err := lossy.Pipe(lossy.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // drain so the gate never stalls on unread datagrams
		buf := make([]byte, 64*1024)
		for {
			if _, _, err := b.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		snd.Close()
		b.Close()
	})
	return v, snd
}
