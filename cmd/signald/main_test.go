package main

import (
	"testing"

	"softstate/internal/singlehop"
	"softstate/internal/variant"
)

// TestProtoFlagSpellings: -proto resolves through variant.Parse, so the
// paper spellings keep working.
func TestProtoFlagSpellings(t *testing.T) {
	cases := map[string]singlehop.Protocol{
		"SS":     singlehop.SS,
		"ss+er":  singlehop.SSER,
		"Ss+Rt":  singlehop.SSRT,
		"SS+RTR": singlehop.SSRTR,
		"hs":     singlehop.HS,
	}
	for in, want := range cases {
		prof, err := variant.Parse(in)
		if err != nil || prof.Proto != want {
			t.Fatalf("variant.Parse(%q) = %v, %v", in, prof.Proto, err)
		}
	}
	if _, err := variant.Parse("tcp"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" 10.0.0.1:7413, 10.0.0.2:7413 ,,10.0.0.3:7413")
	want := []string{"10.0.0.1:7413", "10.0.0.2:7413", "10.0.0.3:7413"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPeers = %v, want %v", got, want)
		}
	}
	if out := splitPeers(""); out != nil {
		t.Fatalf("splitPeers(\"\") = %v, want nil", out)
	}
}
