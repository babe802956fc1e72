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

// TestRestampSummary: a frame given a new sequence number in place is the
// frame Append makes of the same keys and that number, for an empty list, a
// full one and the extremes of the sequence space, and SummaryFrame reads
// back what was stamped.
func TestRestampSummary(t *testing.T) {
	full := make([]string, MaxSummaryKeys)
	for i := range full {
		full[i] = string(rune('a' + i%26))
	}
	for _, keys := range [][]string{nil, {"a", "flow/0001", "", "zz"}, full} {
		m := Message{Type: TypeSummaryRefresh, Seq: 42, Keys: keys}
		frame, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []uint64{43, 0, 1<<64 - 1, 42} {
			RestampSummary(frame, seq)
			m.Seq = seq
			want, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(frame) != string(want) {
				t.Fatalf("%d keys restamped to %d: %x, Append makes %x", len(keys), seq, frame, want)
			}
			if gotSeq, gotKeys := SummaryFrame(frame); gotSeq != seq || gotKeys != len(keys) {
				t.Fatalf("SummaryFrame reads seq %d and %d keys, want %d and %d", gotSeq, gotKeys, seq, len(keys))
			}
		}
	}
}
