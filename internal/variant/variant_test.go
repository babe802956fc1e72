package variant

import (
	"fmt"
	"testing"

	"softstate/internal/singlehop"
)

// TestCanonicalProfilesMatchAnalyticPredicates: the live mechanism
// switches must agree with the analytic model's protocol predicates for
// every paper protocol — that equivalence is what the exp
// cross-validation experiments rest on.
func TestCanonicalProfilesMatchAnalyticPredicates(t *testing.T) {
	if got := len(All()); got != 5 {
		t.Fatalf("All() returned %d profiles, want 5", got)
	}
	for i, prof := range All() {
		proto := singlehop.Protocols()[i]
		if prof.Proto != proto {
			t.Fatalf("profile %d = %v, want %v (paper order)", i, prof.Proto, proto)
		}
		if prof.Refresh != proto.Refreshes() {
			t.Errorf("%s Refresh = %v, model says %v", prof, prof.Refresh, proto.Refreshes())
		}
		if prof.ExplicitRemoval != proto.ExplicitRemoval() {
			t.Errorf("%s ExplicitRemoval = %v, model says %v", prof, prof.ExplicitRemoval, proto.ExplicitRemoval())
		}
		if prof.ReliableTrigger != proto.ReliableTrigger() {
			t.Errorf("%s ReliableTrigger = %v, model says %v", prof, prof.ReliableTrigger, proto.ReliableTrigger())
		}
		if prof.ReliableRemoval != proto.ReliableRemoval() {
			t.Errorf("%s ReliableRemoval = %v, model says %v", prof, prof.ReliableRemoval, proto.ReliableRemoval())
		}
		if prof.HardState != (proto == singlehop.HS) {
			t.Errorf("%s HardState = %v", prof, prof.HardState)
		}
		if err := prof.validate(); err != nil {
			t.Errorf("canonical profile %s invalid: %v", prof, err)
		}
		if For(proto) != prof {
			t.Errorf("For(%v) != canonical profile", proto)
		}
	}
}

func TestParseSpellings(t *testing.T) {
	cases := map[string]string{
		"SS": "SS", "ss": "SS", "softstate": "SS",
		"SS+ER": "SS+ER", "ss-er": "SS+ER", "sser": "SS+ER",
		"ss+rt": "SS+RT", "SS_RT": "SS+RT",
		"ss+rtr": "SS+RTR", "SSRTR": "SS+RTR",
		"hs": "HS", "HardState": "HS", "hard-state": "HS",
	}
	for in, want := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if p.Name != want {
			t.Errorf("Parse(%q) = %s, want %s", in, p.Name, want)
		}
	}
	if _, err := Parse("tcp"); err == nil {
		t.Error("Parse accepted an unknown protocol")
	}
}

func TestValidateRejectsContradictions(t *testing.T) {
	bad := []Profile{
		{Name: "both", Refresh: true, HardState: true},
		{Name: "neither"},
		{Name: "rel-removal-sans-removal", Refresh: true, ReliableRemoval: true},
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a contradictory profile", p)
		}
	}
}

// validate reports the first structural contradiction in a profile.
func (p Profile) validate() error {
	if p.HardState && p.Refresh {
		return fmt.Errorf("variant: %s mixes hard-state lifetime with soft-state refresh", p)
	}
	if !p.HardState && !p.Refresh {
		return fmt.Errorf("variant: %s has no lifetime mechanism (neither refresh/timeout nor hard state)", p)
	}
	if p.ReliableRemoval && !p.ExplicitRemoval {
		return fmt.Errorf("variant: %s retransmits removals it never sends", p)
	}
	return nil
}
