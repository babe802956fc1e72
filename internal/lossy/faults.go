// Network fault primitives: the failure vocabulary the campaign layer
// (internal/sim, internal/chaos) schedules against a running switch.
// Partitions and directed per-link loss overrides are rule edits —
// immutable snapshots swapped atomically, consulted by every WriteTo — and
// Restart models a process crash/restart: the endpoint's conn dies (reads
// unblock with net.ErrClosed, in-flight deliveries drop) and a fresh conn
// takes over the same address.
package lossy

import "net"

// linkKey names one directed link of the switch.
type linkKey struct{ from, to string }

// netRules is one immutable snapshot of the network's fault state.
type netRules struct {
	group map[string]int      // partition side per endpoint (absent = side 0)
	loss  map[linkKey]float64 // directed loss override, from → to
}

// policyFor is the per-write fault check: it reports whether a datagram
// from → to may be delivered, and the loss probability override for the
// link (< 0 means use the configured loss).
func (nw *Network) policyFor(from, to string) (allow bool, loss float64) {
	r := nw.rules.Load()
	if r == nil {
		return true, -1
	}
	if r.group[from] != r.group[to] {
		return false, 0
	}
	if l, ok := r.loss[linkKey{from, to}]; ok {
		return true, l
	}
	return true, -1
}

// editRules swaps in an edited copy of the fault rules under mu.
func (nw *Network) editRules(edit func(*netRules)) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r := &netRules{
		group: map[string]int{},
		loss:  map[linkKey]float64{},
	}
	if old := nw.rules.Load(); old != nil {
		for k, v := range old.group {
			r.group[k] = v
		}
		for k, v := range old.loss {
			r.loss[k] = v
		}
	}
	edit(r)
	nw.rules.Store(r)
}

// Partition splits the switch: endpoints named in sides[i] join side i+1,
// everyone else stays on side 0, and datagrams cross sides in neither
// direction. Calling Partition replaces any previous partition; Heal
// removes it.
func (nw *Network) Partition(sides ...[]string) {
	nw.editRules(func(r *netRules) {
		r.group = map[string]int{}
		for i, side := range sides {
			for _, name := range side {
				r.group[name] = i + 1
			}
		}
	})
}

// Heal removes any partition; loss overrides are untouched.
func (nw *Network) Heal() {
	nw.editRules(func(r *netRules) { r.group = map[string]int{} })
}

// SetLinkLoss overrides the loss probability of the directed from → to
// link — asymmetric loss, the failure mode where one direction of a
// conversation silently degrades. A negative p clears the override.
func (nw *Network) SetLinkLoss(from, to string, p float64) {
	nw.editRules(func(r *netRules) {
		if p < 0 {
			delete(r.loss, linkKey{from, to})
			return
		}
		r.loss[linkKey{from, to}] = p
	})
}

// Restart crashes and restarts the named endpoint: the old conn closes
// (its pending reads fail, queued and in-flight deliveries drop — kernel
// buffers do not survive a process) and a fresh conn is registered under
// the same name, so the restarted process speaks from the same address
// with none of its predecessor's state. The fresh conn's rng forks off
// the switch's seeded stream, keeping whole-campaign runs replayable.
func (nw *Network) Restart(name string) net.PacketConn {
	nw.mu.Lock()
	var old *pipeConn
	if c, ok := nw.eps.Load(name); ok {
		old = c.(*pipeConn)
	}
	fresh := newPipeConn(name, nw.cfg, nw.rng.Split())
	fresh.route = nw.lookup
	fresh.policy = nw.policyFor
	nw.eps.Store(name, fresh)
	nw.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return fresh
}
