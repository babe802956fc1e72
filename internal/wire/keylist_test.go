package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// listFrame is a summary frame of type t around a hand-made key list that
// declares n keys, with a valid checksum.
func listFrame(t Type, n int, list []byte) []byte {
	block := binary.BigEndian.AppendUint16(nil, uint16(n))
	if t == TypeSummaryRefresh {
		block = binary.BigEndian.AppendUint64(block, 0x0123456789abcdef)
	}
	block = append(block, list...)
	data := append([]byte{Version, byte(t)}, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0)
	data = binary.BigEndian.AppendUint32(data, uint32(len(block)))
	data = append(data, block...)
	return binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
}

// oldLayoutList is keys in the layout before front coding: a two-byte
// length, then the key.
func oldLayoutList(keys ...string) []byte {
	var list []byte
	for _, k := range keys {
		list = binary.BigEndian.AppendUint16(list, uint16(len(k)))
		list = append(list, k...)
	}
	return list
}

// item is one hand-made key list item: the shared length, the suffix
// length as the given varint bytes, and the suffix.
func item(shared byte, varint []byte, suffix string) []byte {
	return append(append([]byte{shared}, varint...), suffix...)
}

// uvarint is n's minimal uvarint.
func uvarint(n int) []byte { return binary.AppendUvarint(nil, uint64(n)) }

// TestKeyListRoundTrip: every list shape survives both summary types
// byte for byte, EncodedLen and SummaryFits price it exactly, and both
// in-place walks see the keys the copying decoder does — VisitKeyList with
// each key built after the caller's prefix, which it leaves as it was.
func TestKeyListRoundTrip(t *testing.T) {
	sorted := make([]string, 100)
	for i := range sorted {
		sorted[i] = fmt.Sprintf("flow/%04d", i*37)
	}
	unsorted := slices.Clone(sorted)
	rand.New(rand.NewSource(1)).Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
	x := func(n int) string { return strings.Repeat("x", n) }
	cases := map[string][]string{
		"none":                     nil,
		"sorted":                   sorted,
		"unsorted":                 unsorted,
		"equal neighbours":         {"k", "k", "k", "flow/1", "flow/1"},
		"empty key":                {"", "a", "", "", "ab", ""},
		"prefix of the one before": {"abcdef", "abc", "ab", "abcd", "a"},
		"shared over 255":          {x(300), x(400), x(300) + "y", x(256), x(255), x(400)},
		"MaxKeyLen keys":           {strings.Repeat("a", MaxKeyLen), strings.Repeat("a", MaxKeyLen-1) + "b", strings.Repeat("b", MaxKeyLen), strings.Repeat("b", MaxKeyLen)},
	}
	const prefix = "10.0.0.1:7000\x00"
	for name, keys := range cases {
		for _, typ := range []Type{TypeSummaryRefresh, TypeSummaryNack} {
			in := Message{Type: typ, Seq: 77, Keys: keys}
			if typ == TypeSummaryRefresh {
				in.Fold = 0xfeedface
			}
			data, err := in.MarshalBinary()
			if err != nil {
				t.Fatalf("%s, %s: %v", name, typ, err)
			}
			if len(data) != in.EncodedLen() {
				t.Errorf("%s, %s: %d bytes, EncodedLen %d", name, typ, len(data), in.EncodedLen())
			}
			var out Message
			if err := out.UnmarshalBinary(data); err != nil || !slices.Equal(out.Keys, keys) || out.Fold != in.Fold {
				t.Fatalf("%s, %s: decoded %q fold %x, %v", name, typ, out.Keys, out.Fold, err)
			}
			if again, _ := out.MarshalBinary(); string(again) != string(data) {
				t.Errorf("%s, %s: re-encodes to other bytes", name, typ)
			}
			if typ != TypeSummaryRefresh {
				continue
			}
			if n, frameLen := SummaryFits(keys); n != len(keys) || frameLen != len(data) {
				t.Errorf("%s: SummaryFits = %d keys, %d bytes; want %d, %d", name, n, frameLen, len(keys), len(data))
			}
			var visited []string
			if _, err := VisitSummaryKeys(data, func(_ uint64, k []byte) { visited = append(visited, string(k)) }); err != nil || !slices.Equal(visited, keys) {
				t.Fatalf("%s: VisitSummaryKeys saw %q, %v", name, visited, err)
			}
			seq, _, n, list, err := SummaryKeyList(data)
			if err != nil {
				t.Fatal(err)
			}
			buf := []byte(prefix)
			visited = visited[:0]
			err = VisitKeyList(seq, n, list, &buf, func(_ uint64, k []byte) {
				if string(buf) != prefix+string(k) {
					t.Fatalf("%s: the buffer holds %q while %q is visited", name, buf, k)
				}
				visited = append(visited, string(k))
			})
			if err != nil || !slices.Equal(visited, keys) || string(buf) != prefix {
				t.Fatalf("%s: VisitKeyList saw %q, left %q, %v", name, visited, buf, err)
			}
		}
	}
}

// TestKeyListRejects: one list for each rule that gives a list a single
// encoding, each refused by the copying decoder under both summary types
// and by the in-place walk before it visits a key; and, beside them, the
// largest shared length, which may stop short of the common prefix.
func TestKeyListRejects(t *testing.T) {
	long := strings.Repeat("x", 300)
	cases := []struct {
		name string
		n    int
		list []byte
		want error
	}{
		{"the first key shares", 1, item(1, uvarint(1), "a"), ErrSummary},
		{"a key shares past the one before", 2, append(item(0, uvarint(1), "a"), item(2, uvarint(1), "b")...), ErrSummary},
		{"a shared length short of the common prefix", 2, append(item(0, uvarint(2), "ab"), item(0, uvarint(1), "a")...), ErrSummary},
		{"a shared length one short", 2, append(item(0, uvarint(2), "ab"), item(1, uvarint(1), "b")...), ErrSummary},
		{"a padded uvarint", 1, item(0, []byte{0x81, 0x00}, "a"), ErrSummary},
		{"an overflowing uvarint", 1, item(0, bytes.Repeat([]byte{0xff}, 11), ""), ErrSummary},
		{"a first key over MaxKeyLen", 1, item(0, uvarint(MaxKeyLen+1), strings.Repeat("a", MaxKeyLen+1)), ErrTooLarge},
		{"a rebuilt key over MaxKeyLen", 2, append(item(0, uvarint(300), long), item(255, uvarint(MaxKeyLen-254), strings.Repeat("y", MaxKeyLen-254))...), ErrTooLarge},
		{"a truncated suffix", 1, item(0, uvarint(5), "abc"), ErrShort},
		{"a truncated uvarint", 1, []byte{0, 0x80}, ErrShort},
	}
	for _, c := range cases {
		for _, typ := range []Type{TypeSummaryRefresh, TypeSummaryNack} {
			data := listFrame(typ, c.n, c.list)
			if err := new(Message).UnmarshalBinary(data); !errors.Is(err, c.want) {
				t.Errorf("%s, %s: err = %v, want %v", c.name, typ, err, c.want)
			}
			if typ != TypeSummaryRefresh {
				continue
			}
			visited := 0
			if _, err := VisitSummaryKeys(data, func(uint64, []byte) { visited++ }); !errors.Is(err, c.want) || visited != 0 {
				t.Errorf("%s: VisitSummaryKeys visited %d keys, err = %v, want %v", c.name, visited, err, c.want)
			}
		}
	}
	// At 255 a shared length may stop short of a longer common prefix, and
	// no other length can say that.
	keys := []string{long, long + "z"}
	list := append(item(0, uvarint(300), long), item(255, uvarint(46), long[255:]+"z")...)
	var m Message
	if err := m.UnmarshalBinary(listFrame(TypeSummaryNack, 2, list)); err != nil || !slices.Equal(m.Keys, keys) {
		t.Fatalf("a shared length of 255 inside a 300-byte common prefix: %v", err)
	}
}

// TestKeyListOldLayout: a list in the layout before front coding whose
// neighbours share no leading byte, every key under 128 bytes, is the
// same bytes in both and decodes to the same keys; one of sorted keys
// sharing a prefix is refused.
func TestKeyListOldLayout(t *testing.T) {
	keys := []string{"alpha", "bravo/1", "", "charlie", "delta/" + strings.Repeat("d", 120)}
	for _, typ := range []Type{TypeSummaryRefresh, TypeSummaryNack} {
		old := listFrame(typ, len(keys), oldLayoutList(keys...))
		m := Message{Type: typ, Seq: 9, Keys: keys}
		if typ == TypeSummaryRefresh {
			m.Fold = 0x0123456789abcdef
		}
		if data, err := m.MarshalBinary(); err != nil || string(data) != string(old) {
			t.Fatalf("%s: the front-coded frame differs from the old layout's: %v", typ, err)
		}
		var out Message
		if err := out.UnmarshalBinary(old); err != nil || !slices.Equal(out.Keys, keys) {
			t.Fatalf("%s: the old layout decodes to %q, %v", typ, out.Keys, err)
		}
	}
	shared := listFrame(TypeSummaryRefresh, 3, oldLayoutList("flow/1", "flow/2", "flow/3"))
	if err := new(Message).UnmarshalBinary(shared); !errors.Is(err, ErrSummary) {
		t.Fatalf("an old-layout list of keys sharing a prefix: err = %v", err)
	}
	visited := 0
	if _, err := VisitSummaryKeys(shared, func(uint64, []byte) { visited++ }); err == nil || visited != 0 {
		t.Fatalf("an old-layout list of keys sharing a prefix: %d visited, err = %v", visited, err)
	}
}

// TestVisitKeyListAllocates: walking a 64-key front-coded list with the
// caller's scratch allocates nothing.
func TestVisitKeyListAllocates(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("1d2c3b4a/%07d", i)
	}
	data, err := (&Message{Type: TypeSummaryRefresh, Seq: 3, Keys: keys}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	seq, _, n, list, err := SummaryKeyList(data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 32+MaxKeyLen)
	buf = append(buf, "10.0.0.1:7000\x00"...)
	total := 0
	visit := func(_ uint64, k []byte) { total += len(k) }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := VisitKeyList(seq, n, list, &buf, visit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("VisitKeyList allocates %.1f times a walk", allocs)
	}
	if total == 0 {
		t.Fatal("visited nothing")
	}
}
