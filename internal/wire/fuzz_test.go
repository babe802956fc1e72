package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// FuzzDecode hardens the codec against hostile datagrams (ProFuzzBench-style
// stateful-protocol input fuzzing): any byte string must either decode into
// a message that re-encodes to the identical bytes, or be rejected with an
// error — never panic, never over-allocate from attacker-controlled length
// fields.
func FuzzDecode(f *testing.F) {
	// Valid frames of every type, including the summary encoding.
	seed := []Message{
		{Type: TypeTrigger, Seq: 1, Key: "flow/1", Value: []byte("10Mbps")},
		{Type: TypeRefresh, Seq: 2, Key: "k"},
		{Type: TypeAck, Seq: 3, Key: "k"},
		{Type: TypeRemoval, Seq: 4, Key: "k"},
		{Type: TypeRemovalAck, Seq: 5, Key: "k"},
		{Type: TypeNotify, Seq: 6, Key: "k"},
		{Type: TypeSummaryRefresh, Seq: 7, Keys: []string{"a", "bb", "ccc"}},
		{Type: TypeSummaryNack, Seq: 8, Keys: []string{"missing/1"}},
		{Type: TypeAckBatch, Seq: 9, Acks: []AckItem{
			{Kind: TypeAck, Seq: 1, Key: "flow/1"},
			{Kind: TypeRemovalAck, Seq: 2, Key: "flow/2"},
		}},
		{Type: TypeAckBatch, Seq: 10},
		{Type: TypeProbe, Seq: 11, Key: "flow/1"},
		{Type: TypeProbeAck, Seq: 12, Key: "flow/1"},
		{Type: TypeProbe, Seq: 13, Key: ""},
		// Peer probes: no key, the sender's or receiver's (count, fold).
		{Type: TypeProbe, Seq: 20, Value: AppendPair(nil, 1024, 0x0123456789abcdef)},
		{Type: TypeProbeAck, Seq: 20, Value: AppendPair(nil, ^uint64(0), 0)},
		// VersionExt frames carrying the trace-context TLV.
		{Type: TypeTrigger, Seq: 14, Key: "flow/1", Value: []byte("10Mbps"),
			Trace: TraceContext{OriginNs: 1234, HopNs: 5678, Hops: 2}},
		{Type: TypeRefresh, Seq: 15, Key: "k",
			Trace: TraceContext{OriginNs: 1, HopNs: 1}},
		// The convergence auditor's census exchange.
		{Type: TypeDigest, Seq: 16, Value: DigestRequest{Kind: DigestSummary}.Encode()},
		{Type: TypeDigest, Seq: 17, Value: DigestRequest{Kind: DigestDetail, Bucket: 3}.Encode()},
		{Type: TypeDigestReply, Seq: 18, Value: mustEncodeReply(f, &DigestReply{
			Kind: DigestSummary, Sums: []uint64{1, 2, 3, 4}})},
		{Type: TypeDigestReply, Seq: 19, Value: mustEncodeReply(f, &DigestReply{
			Kind: DigestDetail, Bucket: 1, Parts: 1,
			Keys: []DigestKeySum{{Key: "flow/1", Sum: 99}}})},
	}
	for i := range seed {
		data, err := seed[i].MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Truncated headers at every short length.
	valid, _ := (&Message{Type: TypeTrigger, Seq: 9, Key: "key", Value: []byte("v")}).MarshalBinary()
	for n := 0; n < len(valid); n += 3 {
		f.Add(valid[:n])
	}
	// Bad CRC.
	badCRC := append([]byte{}, valid...)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(badCRC)
	// Oversized key length field with a resealed checksum.
	overKey := append([]byte{}, valid...)
	binary.BigEndian.PutUint16(overKey[10:], MaxKeyLen+1)
	f.Add(resealFrame(overKey))
	// Oversized value length field.
	overVal := append([]byte{}, valid...)
	binary.BigEndian.PutUint32(overVal[12+3:], MaxValueLen+1)
	f.Add(resealFrame(overVal))
	// Huge value length with a tiny frame: must not allocate MaxValueLen.
	tiny := []byte{Version, byte(TypeTrigger), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	f.Add(resealFrame(append(tiny, 0, 0, 0, 0)))
	// Summary frames with corrupted counts and lengths.
	summary, _ := (&Message{Type: TypeSummaryRefresh, Seq: 10, Keys: []string{"aa", "bb"}}).MarshalBinary()
	overCount := append([]byte{}, summary...)
	binary.BigEndian.PutUint16(overCount[16:], MaxSummaryKeys+1)
	f.Add(resealFrame(overCount))
	shortList := append([]byte{}, summary...)
	binary.BigEndian.PutUint16(shortList[16:], 7)
	f.Add(resealFrame(shortList))
	longKey := append([]byte{}, summary...)
	binary.BigEndian.PutUint16(longKey[18:], MaxKeyLen+1)
	f.Add(resealFrame(longKey))
	// Ack batches with corrupted counts, kinds, and lengths.
	batch, _ := (&Message{Type: TypeAckBatch, Seq: 11, Acks: []AckItem{
		{Kind: TypeAck, Seq: 3, Key: "aa"}, {Kind: TypeRemovalAck, Seq: 4, Key: "bb"},
	}}).MarshalBinary()
	overItems := append([]byte{}, batch...)
	binary.BigEndian.PutUint16(overItems[16:], MaxAckItems+1)
	f.Add(resealFrame(overItems))
	badKind := append([]byte{}, batch...)
	badKind[18] = byte(TypeRefresh)
	f.Add(resealFrame(badKind))
	longAckKey := append([]byte{}, batch...)
	binary.BigEndian.PutUint16(longAckKey[27:], MaxKeyLen+1)
	f.Add(resealFrame(longAckKey))
	// Adversarial delivery shapes the chaos engine replays against live
	// endpoints: duplicated and self-contradictory ack items in one
	// batch, and a probe answer for a key no receiver holds (stray or
	// evicted-peer probe-ack) with a saturated sequence number.
	dupBatch, _ := (&Message{Type: TypeAckBatch, Seq: 14, Acks: []AckItem{
		{Kind: TypeAck, Seq: 5, Key: "k"},
		{Kind: TypeAck, Seq: 5, Key: "k"},
		{Kind: TypeRemovalAck, Seq: 5, Key: "k"},
	}}).MarshalBinary()
	f.Add(dupBatch)
	strayProbeAck, _ := (&Message{Type: TypeProbeAck, Seq: ^uint64(0), Key: "evicted/peer/key"}).MarshalBinary()
	f.Add(strayProbeAck)
	// Corrupted trace extensions: zero origin stamp, unknown TLV type,
	// inconsistent lengths, and a v2 summary frame.
	traced, _ := (&Message{Type: TypeTrigger, Seq: 20, Key: "k", Value: []byte("v"),
		Trace: TraceContext{OriginNs: 1000, HopNs: 2000, Hops: 1}}).MarshalBinary()
	zeroOrigin := append([]byte{}, traced...)
	for i := 15; i < 23; i++ {
		zeroOrigin[i] = 0
	}
	f.Add(resealFrame(zeroOrigin))
	badTLV := append([]byte{}, traced...)
	badTLV[13] = 99
	f.Add(resealFrame(badTLV))
	badExtLen := append([]byte{}, traced...)
	badExtLen[12] = 7
	f.Add(resealFrame(badExtLen))
	v2summary := append([]byte{}, summary...)
	v2summary[0] = VersionExt
	f.Add(resealFrame(v2summary))
	// The longest frame there is, and the same frame one value byte longer
	// (its length fields say so, the checksum is resealed).
	longest, _ := (&Message{Type: TypeTrigger, Seq: 21, Key: strings.Repeat("k", MaxKeyLen),
		Value: make([]byte, MaxValueLen), Trace: TraceContext{OriginNs: 1}}).MarshalBinary()
	f.Add(longest)
	overlong := append(append([]byte{}, longest[:len(longest)-4]...), 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(overlong[12+20+MaxKeyLen:], MaxValueLen+1)
	f.Add(resealFrame(overlong))
	// Front-coded key lists: one breaking each rule that gives a list a
	// single encoding, the largest shared length, and an old-layout list
	// of keys sharing a prefix.
	long := strings.Repeat("x", 300)
	for _, list := range [][]byte{
		item(1, uvarint(1), "a"), // the first key shares
		append(item(0, uvarint(1), "a"), item(2, uvarint(1), "b")...),         // past the key before
		append(item(0, uvarint(2), "ab"), item(1, uvarint(1), "b")...),        // short of the common prefix
		item(0, []byte{0x81, 0x00}, "a"),                                      // a padded uvarint
		item(0, bytes.Repeat([]byte{0xff}, 11), ""),                           // an overflowing uvarint
		append(item(0, uvarint(300), long), item(255, uvarint(258), long)...), // over MaxKeyLen
		append(item(0, uvarint(300), long), item(255, uvarint(46), long[255:]+"z")...),
		oldLayoutList("flow/1", "flow/2"),
	} {
		f.Add(listFrame(TypeSummaryRefresh, 2, list))
		f.Add(listFrame(TypeSummaryNack, 1, list))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		err := m.UnmarshalBinary(data)
		// The in-place walk takes exactly the summary refreshes the copying
		// decoder takes, and sees the same keys.
		var visited []string
		_, verr := VisitSummaryKeys(data, func(_ uint64, k []byte) { visited = append(visited, string(k)) })
		if (verr == nil) != (err == nil && m.Type == TypeSummaryRefresh) || verr == nil && !slices.Equal(visited, m.Keys) {
			t.Fatalf("VisitSummaryKeys saw %q, %v; UnmarshalBinary %q, %v", visited, verr, m.Keys, err)
		}
		if err != nil {
			return
		}
		if len(data) > MaxFrameLen {
			t.Fatalf("a %d-byte input decoded; MaxFrameLen is %d", len(data), MaxFrameLen)
		}
		// Decoded fields must satisfy the documented invariants.
		if !m.Type.Valid() {
			t.Fatalf("decoded invalid type %d", m.Type)
		}
		if len(m.Key) > MaxKeyLen || len(m.Value) > MaxValueLen {
			t.Fatalf("decoded oversize key/value: %d/%d", len(m.Key), len(m.Value))
		}
		if m.Type.Summary() {
			if m.Key != "" || m.Value != nil {
				t.Fatalf("summary decoded with key/value: %+v", m)
			}
			if len(m.Keys) > MaxSummaryKeys {
				t.Fatalf("decoded %d summary keys", len(m.Keys))
			}
			for _, k := range m.Keys {
				if len(k) > MaxKeyLen {
					t.Fatalf("decoded oversize summary key: %d bytes", len(k))
				}
			}
		} else if m.Keys != nil {
			t.Fatalf("non-summary decoded with key list: %+v", m)
		}
		if m.Type.Batch() {
			if m.Key != "" || m.Value != nil || m.Keys != nil {
				t.Fatalf("ack batch decoded with key/value: %+v", m)
			}
			if len(m.Acks) > MaxAckItems {
				t.Fatalf("decoded %d ack items", len(m.Acks))
			}
			for _, it := range m.Acks {
				if it.Kind != TypeAck && it.Kind != TypeRemovalAck {
					t.Fatalf("decoded invalid ack kind %v", it.Kind)
				}
				if len(it.Key) > MaxKeyLen {
					t.Fatalf("decoded oversize ack key: %d bytes", len(it.Key))
				}
			}
		} else if m.Acks != nil {
			t.Fatalf("non-batch decoded with ack list: %+v", m)
		}
		if m.Trace.Sampled() && (m.Type.Summary() || m.Type.Batch()) {
			t.Fatalf("list frame decoded with trace context: %+v", m)
		}
		if m.Trace.Sampled() != (data[0] == VersionExt) {
			t.Fatalf("version %d decoded trace %+v", data[0], m.Trace)
		}
		// A probe is a pair or a per-key probe, and the in-place decoder takes
		// exactly the version-1 pairs, reading what the copying one did.
		_, _, isPair := m.Pair()
		if m.Type.Probe() && m.Value != nil && !isPair {
			t.Fatalf("probe decoded with a %d-byte value", len(m.Value))
		}
		var aliased Message
		if inPlace := DecodePeer(data, &aliased); inPlace != (isPair && data[0] == Version) ||
			inPlace && (aliased.Type != m.Type || aliased.Seq != m.Seq || !bytes.Equal(aliased.Value, m.Value)) {
			t.Fatalf("DecodePeer ok=%v read %+v for %+v", inPlace, aliased, m)
		}
		// Round trip: an accepted frame re-encodes to the same bytes.
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if len(out) > MaxFrameLen {
			t.Fatalf("re-encoded to %d bytes; MaxFrameLen is %d", len(out), MaxFrameLen)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, out)
		}
	})
}

// mustEncodeReply encodes a digest reply for the seed corpus.
func mustEncodeReply(f *testing.F, r *DigestReply) []byte {
	val, err := r.Encode()
	if err != nil {
		f.Fatal(err)
	}
	return val
}

// resealFrame recomputes the CRC trailer of a hand-edited frame.
func resealFrame(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	return reseal(data)
}

// FuzzDecodeKeys drives the summary list codec with structured inputs: NUL
// separated keys, sorted or as given, each list as both summary types. The
// SummaryFits-bounded list encodes to the length SummaryFits says, decodes
// to itself, and the in-place walk sees exactly the decoder's keys.
func FuzzDecodeKeys(f *testing.F) {
	f.Add(uint64(1), "a\x00bb\x00ccc", false)
	f.Add(uint64(2), "", false)
	f.Add(uint64(3), strings.Repeat("k\x00", 200), false)
	// Sorted keys sharing prefixes: short ones, ones that are prefixes of
	// their neighbours, and ones sharing more than 255 bytes.
	f.Add(uint64(4), "flow/0010\x00flow/0009\x00flow/0100\x00flow/01\x00flow/\x00", true)
	f.Add(uint64(5), "b\x00ab\x00abc\x00\x00a\x00abc", true)
	x := strings.Repeat("x", 300)
	f.Add(uint64(6), x+"\x00"+x+"y\x00"+x[:256]+"\x00"+x+x, true)
	f.Fuzz(func(t *testing.T, seq uint64, packed string, sorted bool) {
		keys := strings.Split(packed, "\x00")
		for i := range keys {
			if len(keys[i]) > MaxKeyLen {
				keys[i] = keys[i][:MaxKeyLen]
			}
		}
		if sorted {
			slices.Sort(keys)
		}
		n, frameLen := SummaryFits(keys)
		keys = keys[:n]
		for _, typ := range []Type{TypeSummaryRefresh, TypeSummaryNack} {
			in := Message{Type: typ, Seq: seq, Keys: keys}
			if typ == TypeSummaryRefresh {
				in.Fold = seq * 0x9e3779b97f4a7c15
			}
			data, err := in.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: SummaryFits-bounded list does not encode: %v", typ, err)
			}
			if typ == TypeSummaryRefresh && len(data) != frameLen {
				t.Fatalf("encoded to %d bytes, SummaryFits says %d", len(data), frameLen)
			}
			var out Message
			if err := out.UnmarshalBinary(data); err != nil {
				t.Fatalf("%s: roundtrip decode failed: %v", typ, err)
			}
			if !slices.Equal(out.Keys, keys) || out.Fold != in.Fold {
				t.Fatalf("%s: decoded %q fold %x, want %q fold %x", typ, out.Keys, out.Fold, keys, in.Fold)
			}
			if typ != TypeSummaryRefresh {
				continue
			}
			var visited []string
			got, err := VisitSummaryKeys(data, func(s uint64, k []byte) {
				if s != seq {
					t.Fatalf("visited under seq %d, want %d", s, seq)
				}
				visited = append(visited, string(k))
			})
			if err != nil || got != seq || !slices.Equal(visited, out.Keys) {
				t.Fatalf("VisitSummaryKeys saw %q under seq %d, %v; UnmarshalBinary %q", visited, got, err, out.Keys)
			}
		}
	})
}
