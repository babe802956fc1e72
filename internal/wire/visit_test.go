package wire

import (
	"errors"
	"testing"
)

// TestVisitSummaryKeysMatchesDecoder proves the in-place summary walker
// sees exactly what the copying decoder sees.
func TestVisitSummaryKeysMatchesDecoder(t *testing.T) {
	m := Message{Type: TypeSummaryRefresh, Seq: 42, Keys: []string{"a", "flow/0001", "", "zz"}}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	seq, err := VisitSummaryKeys(data, func(seq uint64, key []byte) {
		if seq != 42 {
			t.Fatalf("visit seq = %d, want 42", seq)
		}
		got = append(got, string(key))
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("seq = %d, want 42", seq)
	}
	var dec Message
	if err := dec.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(dec.Keys) {
		t.Fatalf("visited %d keys, decoder saw %d", len(got), len(dec.Keys))
	}
	for i := range got {
		if got[i] != dec.Keys[i] {
			t.Fatalf("key %d: visited %q, decoded %q", i, got[i], dec.Keys[i])
		}
	}
}

// TestVisitSummaryKeysRejectsBeforeVisiting proves a malformed datagram
// renews nothing: validation is all-or-nothing, like the copying decoder.
func TestVisitSummaryKeysRejectsBeforeVisiting(t *testing.T) {
	m := Message{Type: TypeSummaryRefresh, Seq: 7, Keys: []string{"aaa", "bbb", "ccc"}}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":    data[:len(data)-6],
		"corrupt-body": flip(data, 20),
		"short":        {1, byte(TypeSummaryRefresh)},
	}
	for name, bad := range cases {
		visited := 0
		if _, err := VisitSummaryKeys(bad, func(uint64, []byte) { visited++ }); err == nil {
			t.Fatalf("%s: no error", name)
		}
		if visited != 0 {
			t.Fatalf("%s: visited %d keys of an invalid datagram", name, visited)
		}
	}
	// Non-summary types are rejected even when otherwise valid.
	tr := Message{Type: TypeTrigger, Seq: 1, Key: "k"}
	tdata, _ := tr.MarshalBinary()
	if _, err := VisitSummaryKeys(tdata, func(uint64, []byte) {}); !errors.Is(err, ErrType) {
		t.Fatalf("trigger datagram: err = %v, want ErrType", err)
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0xff
	return out
}

func TestPeekType(t *testing.T) {
	m := Message{Type: TypeSummaryRefresh, Keys: []string{"k"}}
	data, _ := m.MarshalBinary()
	if got := PeekType(data); got != TypeSummaryRefresh {
		t.Fatalf("PeekType = %v", got)
	}
	if got := PeekType([]byte{1}); got != 0 {
		t.Fatalf("PeekType(short) = %v, want 0", got)
	}
}

// TestSummaryFold: a summary refresh carries its fold through Append,
// UnmarshalBinary and SummaryKeyList, for an empty list, a full one and
// the extremes of the fold; SummaryFrame reads the key count back; and a
// NACK, which has no fold, refuses one.
func TestSummaryFold(t *testing.T) {
	full := make([]string, MaxSummaryKeys)
	for i := range full {
		full[i] = string(rune('a' + i%26))
	}
	for _, keys := range [][]string{nil, {"a", "flow/0001", "", "zz"}, full} {
		for _, fold := range []uint64{0, 1, 1<<64 - 1, StateHash("a", 3, []byte("v"))} {
			m := Message{Type: TypeSummaryRefresh, Seq: 42, Keys: keys, Fold: fold}
			frame, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got Message
			if err := got.UnmarshalBinary(frame); err != nil || got.Fold != fold || len(got.Keys) != len(keys) {
				t.Fatalf("%d keys, fold %x: decoded fold %x, %d keys, %v", len(keys), fold, got.Fold, len(got.Keys), err)
			}
			seq, gotFold, n, _, err := SummaryKeyList(frame)
			if err != nil || seq != 42 || gotFold != fold || n != len(keys) {
				t.Fatalf("SummaryKeyList: seq %d, fold %x, %d keys, %v", seq, gotFold, n, err)
			}
			if n := SummaryFrame(frame); n != len(keys) {
				t.Fatalf("SummaryFrame reads %d keys, want %d", n, len(keys))
			}
		}
	}
	nack := Message{Type: TypeSummaryNack, Keys: []string{"a"}, Fold: 1}
	if _, err := nack.MarshalBinary(); !errors.Is(err, ErrSummary) {
		t.Fatalf("a NACK with a fold encodes: %v", err)
	}
}
