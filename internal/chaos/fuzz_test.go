package chaos

import (
	"testing"
)

// seedTrace builds a corpus entry: variant selector byte (0–4 per-key, 5–9
// the same variants with summary refreshes and coalesced acks) followed by
// two-byte ops.
func seedTrace(variant byte, ops ...Op) []byte {
	data := []byte{variant}
	for _, op := range ops {
		data = append(data, byte(op.Kind), op.Arg)
	}
	return data
}

// corpusSeeds are the scenarios the fuzzer should mutate outward from:
// each one aims a specific mutation class at live protocol state.
func corpusSeeds() [][]byte {
	install := func(k byte) Op { return Op{OpInstall, k} }
	tick := func(ms byte) Op { return Op{OpAdvance, ms} }
	seeds := [][]byte{
		// Plain workload churn, no mutations.
		seedTrace(0, install(0), tick(10), Op{OpUpdate, 0}, tick(10), Op{OpRemove, 0}, tick(40)),
		// Duplicate and stale-replay against a renewed key.
		seedTrace(1, install(1), tick(5), Op{OpDuplicate, 0}, Op{OpUpdate, 1}, Op{OpReplay, 0}, tick(20)),
		// Reordering window across an update burst.
		seedTrace(2, install(2), Op{OpHold, 0}, Op{OpUpdate, 2}, Op{OpUpdate, 2}, Op{OpRelease, 0}, tick(10)),
		// Hold that overruns the budget (auto-release path).
		seedTrace(3, install(3), Op{OpHold, 0}, tick(31), tick(31), tick(31), Op{OpUpdate, 3}, tick(10)),
		// Cross-session splice onto an owned and an unowned key.
		seedTrace(4, install(0), tick(5), Op{OpSplice, 3}, Op{OpSplice, 11}, tick(30)),
		// Framing damage and garbage against live state.
		seedTrace(0, install(4), Op{OpTruncate, 7}, Op{OpGarbage, 99}, tick(10)),
		// Type confusion: refresh↔trigger flips around a removal.
		seedTrace(4, install(5), tick(5), Op{OpTypeFlip, 0}, Op{OpRemove, 5}, Op{OpTypeFlip, 0}, tick(40)),
		// Stale replay resurrecting a removed key (zombie cleanup path).
		seedTrace(1, install(6), tick(5), Op{OpRemove, 6}, tick(10), Op{OpReplay, 2}, tick(40)),
		// The hard-state ghost: k6's trigger (the sender's second frame)
		// replayed after its acked removal, while the sender lives on with k0
		// and answers every peer probe. Only the audit its one-short key set
		// opens can orphan the ghost before the final quiesce ends.
		seedTrace(4, install(0), install(6), tick(5), Op{OpRemove, 6}, tick(10), Op{OpReplay, 1}, tick(31), tick(31)),
		// Summary mode. A captured summary (the third frame the sender
		// wrote) replayed after one of its keys was withdrawn: an
		// intact-looking list must neither revive the key nor extend a lease
		// the removal broke.
		seedTrace(6, install(0), install(1), tick(31), Op{OpRemove, 0}, tick(5), Op{OpReplay, 2}, tick(40)),
		// The second session's summary of k0–k3 (its ninth frame) spliced
		// onto a sender leasing the same list, byte for byte, under another
		// sequence space.
		seedTrace(5, install(0), install(1), install(2), install(3), tick(31), tick(31), Op{OpSplice, 8}, tick(31), tick(40)),
		// A summary cut in the middle of its first key.
		seedTrace(5, install(0), install(1), tick(31), Op{OpTruncate, 20}, tick(10)),
		// A summary that names a key at another version than the one held:
		// k0 and k5 installed, a frame duplicated, k1 updated, and the
		// second session's k0 (its frame 65, "w0") spliced in over the
		// first's before the clock moves. Summaries that named keys only
		// renewed "w0" for ever; the fold of the sender's versions makes
		// the receiver NACK the list, and the re-trigger repairs k0.
		append([]byte{6}, "\x01\x00\x01\x05\x04\x00\x02\x018A00"...),
	}
	return seeds
}

// FuzzSession drives decoded mutation traces into one live
// sender/receiver pair (first input byte selects the variant and, from 5
// up, the summary-refresh mode) and fails on any structural invariant
// violation at any step. Every failure reproduces from its corpus entry
// alone: the engine runs entirely in virtual time over a seeded network.
func FuzzSession(f *testing.F) {
	for _, s := range corpusSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		res, err := RunTrace(int(data[0])%(2*len(Protocols)), DecodeTrace(data[1:]))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%s: invariant violations under trace:\n%v", res.Protocol, res.Violations)
		}
	})
}

// FuzzDifferential drives the same adversarial trace into all five
// variant profiles in both refresh modes — all ten selectors — and applies
// each profile's allowed-divergence rule: refresh-bearing variants must
// reconverge the receiver to the sender's exact intent, hard state may
// diverge only on keys a splice forged.
func FuzzDifferential(f *testing.F) {
	for _, s := range corpusSeeds() {
		f.Add(s[1:]) // differential runs every selector; no selector byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := DecodeTrace(data)
		for i := 0; i < 2*len(Protocols); i++ {
			res, err := RunTrace(i, ops)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("selector %d (%s): invariant violations: %v", i, res.Protocol, res.Violations)
			}
			if bad := DivergenceViolations(res); len(bad) != 0 {
				t.Fatalf("selector %d (%s): divergence beyond the variant's allowance: %v\nintent=%q survivor=%q spliced=%v",
					i, res.Protocol, bad, res.Intent, res.Survivor, res.Spliced)
			}
		}
	})
}

// TestCorpusSeeds replays every corpus seed through FuzzSession's body as a
// plain test, under the seed's variant in both modes (per-key, then summary
// refreshes with coalesced acks), so `go test` (and CI's short mode)
// exercises the whole mutation grammar deterministically even when no fuzz
// engine runs.
func TestCorpusSeeds(t *testing.T) {
	for i, s := range corpusSeeds() {
		for m, mode := range []string{"per-key", "summary"} {
			res, err := RunTrace(int(s[0])%len(Protocols)+m*len(Protocols), DecodeTrace(s[1:]))
			if err != nil {
				t.Fatalf("seed %d, %s: %v", i, mode, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("seed %d (%s, %s): %v", i, res.Protocol, mode, res.Violations)
			}
		}
	}
}

// TestDifferentialSeeds applies the differential divergence rule to every
// corpus seed across all ten selectors: the five variants, per key and in
// summary mode.
func TestDifferentialSeeds(t *testing.T) {
	for i, s := range corpusSeeds() {
		ops := DecodeTrace(s[1:])
		for pi := 0; pi < 2*len(Protocols); pi++ {
			res, err := RunTrace(pi, ops)
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("seed %d (selector %d, %s): %v", i, pi, res.Protocol, res.Violations)
			}
			if bad := DivergenceViolations(res); len(bad) != 0 {
				t.Fatalf("seed %d (selector %d, %s): %v\nintent=%q survivor=%q spliced=%v",
					i, pi, res.Protocol, bad, res.Intent, res.Survivor, res.Spliced)
			}
		}
	}
}

// TestEngineExercisesCodec proves the damage ops reach the codec: a
// truncation plus garbage trace must leave decode-error evidence.
func TestEngineExercisesCodec(t *testing.T) {
	ops := []Op{{OpInstall, 0}, {OpAdvance, 5}, {OpTruncate, 200}, {OpGarbage, 42}, {OpAdvance, 5}}
	res, err := RunTrace(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeErrors == 0 {
		t.Fatal("truncate+garbage trace produced no decode errors — mutations are not reaching the receiver")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}
