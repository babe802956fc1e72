// Package variant is the protocol-variant layer of the live signaling
// runtime: it names the mechanism bundle of each of the paper's five
// generic protocols (SS, SS+ER, SS+RT, SS+RTR, HS) as an explicit
// Profile, so the real Sender/Receiver/Session/Node stack can be switched
// between them with one knob instead of scattering protocol predicates
// through the runtime.
//
// A Profile is pure data — five mechanism switches — and deliberately
// knows nothing about timers or transports; signal.Config carries the
// timer values (refresh interval, timeout, retransmit/backoff, probe
// period) and the endpoints consult the profile for *which* mechanisms to
// run. The five canonical profiles mirror internal/singlehop's analytic
// protocol definitions exactly, which is what lets internal/exp
// cross-validate the live stack against the paper's models variant by
// variant.
package variant

import (
	"fmt"
	"strings"

	"softstate/internal/singlehop"
)

// Profile is one protocol's mechanism bundle.
type Profile struct {
	// Name is the paper's protocol name ("SS" … "HS") for canonical
	// profiles, or any label for a custom mix.
	Name string
	// Proto is the matching analytic protocol identifier, used for
	// model cross-validation and display.
	Proto singlehop.Protocol
	// Refresh enables soft-state lifetime semantics: the sender refreshes
	// every key each refresh interval (per key or via summary datagrams)
	// and the receiver removes state whose refreshes stop arriving
	// (state-timeout T).
	Refresh bool
	// ExplicitRemoval sends a removal message when the sender withdraws
	// state instead of letting it time out.
	ExplicitRemoval bool
	// ReliableTrigger acknowledges triggers and retransmits unacked ones
	// (with exponential backoff in this runtime).
	ReliableTrigger bool
	// ReliableRemoval acknowledges and retransmits removal messages.
	ReliableRemoval bool
	// HardState enables hard-state lifetime semantics at the receiver: no
	// state-timeout ever fires; orphaned state (a dead sender that can no
	// longer remove it) is detected by liveness probes and removed
	// explicitly — the paper's "external removal signal", made concrete.
	HardState bool
}

// canonical is the paper's five profiles in presentation order (Fig 1).
var canonical = [5]Profile{
	{Name: "SS", Proto: singlehop.SS, Refresh: true},
	{Name: "SS+ER", Proto: singlehop.SSER, Refresh: true, ExplicitRemoval: true},
	{Name: "SS+RT", Proto: singlehop.SSRT, Refresh: true, ReliableTrigger: true},
	{Name: "SS+RTR", Proto: singlehop.SSRTR, Refresh: true, ExplicitRemoval: true,
		ReliableTrigger: true, ReliableRemoval: true},
	{Name: "HS", Proto: singlehop.HS, ExplicitRemoval: true,
		ReliableTrigger: true, ReliableRemoval: true, HardState: true},
}

// For returns the canonical profile of a paper protocol.
func For(p singlehop.Protocol) Profile {
	for _, prof := range canonical {
		if prof.Proto == p {
			return prof
		}
	}
	// Unknown protocol values fall back to pure soft state, the paper's
	// baseline; Validate on a hand-built profile is the strict path.
	prof := canonical[0]
	prof.Proto = p
	return prof
}

// All returns the five canonical profiles in the paper's order, SS → HS.
func All() []Profile {
	out := make([]Profile, len(canonical))
	copy(out, canonical[:])
	return out
}

// Parse resolves a protocol name to its canonical profile. It accepts the
// paper spellings case-insensitively with "+", "-", "_", or nothing
// between mechanism tags: "SS+RTR", "ss-rtr", "ssrtr" all select SS+RTR;
// "hs" and "hardstate" select HS.
func Parse(name string) (Profile, error) {
	norm := strings.ToLower(name)
	for _, cut := range []string{"+", "-", "_", " "} {
		norm = strings.ReplaceAll(norm, cut, "")
	}
	switch norm {
	case "ss", "softstate":
		return canonical[0], nil
	case "sser":
		return canonical[1], nil
	case "ssrt":
		return canonical[2], nil
	case "ssrtr":
		return canonical[3], nil
	case "hs", "hardstate":
		return canonical[4], nil
	}
	return Profile{}, fmt.Errorf("variant: unknown protocol %q (want SS, SS+ER, SS+RT, SS+RTR, or HS)", name)
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Mechanisms()
}

// Mechanisms renders the enabled mechanism set, e.g.
// "refresh+timeout, explicit-removal, reliable-trigger".
func (p Profile) Mechanisms() string {
	var parts []string
	if p.Refresh {
		parts = append(parts, "refresh+timeout")
	}
	if p.HardState {
		parts = append(parts, "hard-state+probe")
	}
	if p.ExplicitRemoval {
		parts = append(parts, "explicit-removal")
	}
	if p.ReliableTrigger {
		parts = append(parts, "reliable-trigger")
	}
	if p.ReliableRemoval {
		parts = append(parts, "reliable-removal")
	}
	if parts == nil {
		return "none"
	}
	return strings.Join(parts, ", ")
}
