package main

import (
	"testing"

	"softstate/internal/rand"
	"softstate/internal/singlehop"
)

func TestParseProtocols(t *testing.T) {
	ps, err := parseProtocols("ss+er", false)
	if err != nil || len(ps) != 1 || ps[0] != singlehop.SSER {
		t.Fatalf("ps=%v err=%v", ps, err)
	}
	ps, err = parseProtocols("all", false)
	if err != nil || len(ps) != 5 {
		t.Fatalf("all: ps=%v err=%v", ps, err)
	}
	ps, err = parseProtocols("all", true)
	if err != nil || len(ps) != 3 {
		t.Fatalf("multihop all: ps=%v err=%v", ps, err)
	}
	if _, err := parseProtocols("SS+ER", true); err == nil {
		t.Fatal("SS+ER should be rejected for multihop")
	}
	if _, err := parseProtocols("bogus", false); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestParseTimers(t *testing.T) {
	cases := map[string]rand.TimerKind{
		"deterministic": rand.Deterministic,
		"det":           rand.Deterministic,
		"exponential":   rand.Exponential,
		"EXP":           rand.Exponential,
		"jitter":        rand.UniformJitter,
		"uniform":       rand.UniformJitter,
	}
	for in, want := range cases {
		got, err := parseTimers(in)
		if err != nil || got != want {
			t.Fatalf("parseTimers(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseTimers("gaussian"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}
