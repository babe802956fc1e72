package des

// Timer is a restartable one-shot timer bound to a kernel, mirroring the
// refresh, state-timeout, and retransmission timers of the signaling
// protocols. Reset replaces any pending expiry, exactly like restarting a
// protocol timer on message receipt.
//
// A Timer owns one Event for its whole lifetime: Reset rearms it in place
// (resifting the heap node when pending, pushing it back when fired) and
// Stop detaches it from the heap, so an arbitrarily long Reset/Stop
// sequence performs zero allocations and leaves zero cancelled tombstones
// behind.
type Timer struct {
	kernel *Kernel
	ev     *Event
}

// NewTimer returns an inactive timer that runs fn on expiry.
func (k *Kernel) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("des: nil timer callback")
	}
	return &Timer{kernel: k, ev: &Event{fn: fn, index: -1, cancelled: true}}
}

// Reset (re)arms the timer to fire after delay, replacing any pending
// expiry.
func (t *Timer) Reset(delay float64) {
	if delay < 0 {
		panic("des: negative timer delay")
	}
	t.kernel.Rearm(t.ev, t.kernel.now+delay)
}

// Stop disarms the timer. Stopping an inactive timer is a no-op.
func (t *Timer) Stop() {
	t.kernel.Remove(t.ev)
}

// Active reports whether an expiry is pending.
func (t *Timer) Active() bool { return t.ev.index >= 0 && !t.ev.cancelled }
