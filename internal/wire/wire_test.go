package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	in := Message{Type: TypeTrigger, Seq: 42, Key: "flow/7", Value: []byte("bandwidth=10Mbps")}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != in.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(data), in.EncodedLen())
	}
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Seq != in.Seq || out.Key != in.Key || !bytes.Equal(out.Value, in.Value) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

func TestRoundTripEmptyValue(t *testing.T) {
	in := Message{Type: TypeAck, Seq: 1, Key: "k"}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.Value != nil {
		t.Fatalf("empty value decoded as %v", out.Value)
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(typRaw uint8, seq uint64, key string, value []byte) bool {
		typ := Type(typRaw%uint8(maxType-1)) + TypeTrigger
		if typ.Summary() || typ.Batch() || typ.Probe() {
			// Summary and batch types carry lists, probes one of two fixed
			// shapes; each is covered by its own tests.
			typ = TypeTrigger
		}
		if len(key) > MaxKeyLen {
			key = key[:MaxKeyLen]
		}
		if len(value) > MaxValueLen {
			value = value[:MaxValueLen]
		}
		in := Message{Type: typ, Seq: seq, Key: key, Value: value}
		data, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out Message
		if err := out.UnmarshalBinary(data); err != nil {
			return false
		}
		return out.Type == in.Type && out.Seq == in.Seq && out.Key == in.Key &&
			bytes.Equal(out.Value, in.Value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetectedProperty(t *testing.T) {
	base := Message{Type: TypeRefresh, Seq: 7, Key: "session", Value: []byte("v1")}
	data, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(pos int, flip uint8) bool {
		if flip == 0 {
			return true // no-op flip
		}
		corrupted := make([]byte, len(data))
		copy(corrupted, data)
		corrupted[((pos%len(data))+len(data))%len(data)] ^= flip
		var out Message
		return out.UnmarshalBinary(corrupted) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationDetected(t *testing.T) {
	m := Message{Type: TypeTrigger, Seq: 9, Key: "key", Value: []byte("value")}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		var out Message
		if err := out.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestVersionRejected(t *testing.T) {
	m := Message{Type: TypeTrigger, Seq: 1, Key: "k"}
	data, _ := m.MarshalBinary()
	data[0] = 99
	// Fix the checksum so the version check is what trips.
	fixed, _ := (&Message{Type: TypeTrigger, Seq: 1, Key: "k"}).MarshalBinary()
	_ = fixed
	var out Message
	err := out.UnmarshalBinary(data)
	if err == nil {
		t.Fatal("bad version accepted")
	}
	// With a corrupted version byte the checksum fails first; re-encode
	// with a valid trailer to exercise the version path directly.
	raw := append([]byte{}, data[:len(data)-4]...)
	sum := checksumOf(raw)
	raw = append(raw, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	err = out.UnmarshalBinary(raw)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	m := Message{Type: TypeTrigger, Seq: 1, Key: "k"}
	data, _ := m.MarshalBinary()
	data[1] = byte(maxType) + 5
	raw := append([]byte{}, data[:len(data)-4]...)
	sum := checksumOf(raw)
	raw = append(raw, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	var out Message
	if err := out.UnmarshalBinary(raw); !errors.Is(err, ErrType) {
		t.Fatalf("err = %v, want ErrType", err)
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	m := Message{Type: TypeTrigger, Key: strings.Repeat("k", MaxKeyLen+1)}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize key err = %v", err)
	}
	m = Message{Type: TypeTrigger, Key: "k", Value: make([]byte, MaxValueLen+1)}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize value err = %v", err)
	}
	m = Message{Type: 0, Key: "k"}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrType) {
		t.Fatalf("invalid type err = %v", err)
	}
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	m := Message{Type: TypeTrigger, Seq: 3, Key: "k", Value: []byte("abc")}
	data, _ := m.MarshalBinary()
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	if string(out.Value) != "abc" || out.Key != "k" {
		t.Fatal("decoded message aliases input buffer")
	}
}

func TestTypeStrings(t *testing.T) {
	for typ := TypeTrigger; typ < maxType; typ++ {
		if s := typ.String(); s == "" || strings.HasPrefix(s, "Type(") {
			t.Fatalf("missing name for type %d", typ)
		}
	}
	if !strings.HasPrefix(Type(200).String(), "Type(") {
		t.Fatal("unknown type should render numerically")
	}
	if (Type(0)).Valid() || Type(maxType).Valid() {
		t.Fatal("Valid accepts out-of-range types")
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Type: TypeNotify, Seq: 5, Key: "x"}
	if !strings.Contains(m.String(), "notify") {
		t.Fatalf("String = %q", m.String())
	}
}

// checksumOf recomputes the trailer checksum for hand-built frames.
func checksumOf(body []byte) uint32 {
	return crc32.ChecksumIEEE(body)
}

// reseal replaces the trailer of a hand-edited frame with a valid CRC so
// the targeted validation path, not the checksum, is what trips.
func reseal(data []byte) []byte {
	body := append([]byte{}, data[:len(data)-4]...)
	sum := checksumOf(body)
	return append(body, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
}

func TestSummaryRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeSummaryRefresh, TypeSummaryNack} {
		in := Message{Type: typ, Seq: 77, Keys: []string{"flow/1", "", "flow/2", "a/very/long/key"}}
		data, err := in.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != in.EncodedLen() {
			t.Fatalf("encoded %d bytes, EncodedLen says %d", len(data), in.EncodedLen())
		}
		var out Message
		if err := out.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if out.Type != typ || out.Seq != 77 || out.Key != "" || out.Value != nil {
			t.Fatalf("roundtrip header mismatch: %+v", out)
		}
		if len(out.Keys) != len(in.Keys) {
			t.Fatalf("keys = %v, want %v", out.Keys, in.Keys)
		}
		for i := range in.Keys {
			if out.Keys[i] != in.Keys[i] {
				t.Fatalf("keys = %v, want %v", out.Keys, in.Keys)
			}
		}
	}
}

func TestSummaryEmptyList(t *testing.T) {
	in := Message{Type: TypeSummaryRefresh, Seq: 1}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(out.Keys) != 0 {
		t.Fatalf("keys = %v, want none", out.Keys)
	}
}

func TestSummaryRejectsKeyValue(t *testing.T) {
	m := Message{Type: TypeSummaryRefresh, Key: "k"}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrSummary) {
		t.Fatalf("summary with key err = %v", err)
	}
	m = Message{Type: TypeSummaryNack, Value: []byte("v")}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrSummary) {
		t.Fatalf("summary with value err = %v", err)
	}
}

func TestSummaryRejectsOversize(t *testing.T) {
	m := Message{Type: TypeSummaryRefresh, Keys: make([]string, MaxSummaryKeys+1)}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too many keys err = %v", err)
	}
	m = Message{Type: TypeSummaryRefresh, Keys: []string{strings.Repeat("k", MaxKeyLen+1)}}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize summary key err = %v", err)
	}
	// 40 keys of 400 bytes each exceed the MaxValueLen byte budget even
	// though each key and the count are individually legal. Each begins
	// with its own byte, so front coding shares nothing between them.
	big := make([]string, 40)
	for i := range big {
		big[i] = string(rune('A'+i)) + strings.Repeat("x", 399)
	}
	m = Message{Type: TypeSummaryRefresh, Keys: big}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize summary block err = %v", err)
	}
}

func TestSummaryRejectsMalformedBlocks(t *testing.T) {
	good, err := (&Message{Type: TypeSummaryRefresh, Seq: 1, Keys: []string{"aa", "bb"}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Nonzero single-key length on a summary type.
	bad := append([]byte{}, good...)
	bad[10], bad[11] = 0, 1
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrSummary) {
		t.Fatalf("nonzero key length err = %v", err)
	}
	// Count claims more keys than the block holds.
	bad = append([]byte{}, good...)
	bad[16], bad[17] = 0, 9
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrShort) {
		t.Fatalf("short key list err = %v", err)
	}
	// Count claims fewer keys, leaving trailing bytes.
	bad = append([]byte{}, good...)
	bad[16], bad[17] = 0, 1
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrSummary) {
		t.Fatalf("trailing bytes err = %v", err)
	}
}

func TestSummaryDecodeDoesNotAliasInput(t *testing.T) {
	m := Message{Type: TypeSummaryNack, Keys: []string{"abc"}}
	data, _ := m.MarshalBinary()
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	if out.Keys[0] != "abc" {
		t.Fatal("decoded summary aliases input buffer")
	}
}

// TestProbeShapesRoundTrip: both probe types in both shapes survive the
// codec, the value's length alone tells a peer frame from a per-key one
// (even for the user key ""), and the in-place decoder agrees with the
// copying one on every peer frame and declines every per-key one.
func TestProbeShapesRoundTrip(t *testing.T) {
	pair := AppendPair(nil, 1024, 0xfeedfacecafebeef)
	for _, in := range []Message{
		{Type: TypeProbe, Seq: 7, Value: pair},
		{Type: TypeProbeAck, Seq: 7, Value: pair},
		{Type: TypeProbe, Seq: 8, Key: "flow/1"},
		{Type: TypeProbeAck, Seq: 8, Key: "flow/1"},
		{Type: TypeProbe, Seq: 9, Key: ""},
		{Type: TypeProbeAck, Seq: 9, Key: ""},
	} {
		data, err := in.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		var out Message
		if err := out.UnmarshalBinary(data); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if out.Type != in.Type || out.Seq != in.Seq || out.Key != in.Key || !bytes.Equal(out.Value, in.Value) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
		}
		count, fold, isPair := out.Pair()
		var aliased Message
		inPlace := DecodePeer(data, &aliased)
		if peer := in.Value != nil; isPair != peer || inPlace != peer {
			t.Fatalf("%v: Pair ok=%v, DecodePeer ok=%v, want %v", in, isPair, inPlace, peer)
		}
		if isPair && (count != 1024 || fold != 0xfeedfacecafebeef) {
			t.Fatalf("%v: Pair (%d, %x)", in, count, fold)
		}
		if inPlace && (aliased.Type != out.Type || aliased.Seq != out.Seq || aliased.Key != "" || !bytes.Equal(aliased.Value, out.Value)) {
			t.Fatalf("DecodePeer %+v, UnmarshalBinary %+v", aliased, out)
		}
	}
}

// TestProbeRejectsOtherShapes: a probe-type frame whose value is neither
// empty nor a pair, or a pair that names a key, is refused by the encoder
// and the decoder alike, and the in-place reader never takes it.
func TestProbeRejectsOtherShapes(t *testing.T) {
	for _, typ := range []Type{TypeProbe, TypeProbeAck} {
		for _, bad := range []Message{
			{Type: typ, Value: []byte("v")},
			{Type: typ, Value: make([]byte, PairLen+1)},
			{Type: typ, Value: make([]byte, PairLen-1)},
			{Type: typ, Key: "k", Value: make([]byte, PairLen)},
		} {
			if _, err := bad.MarshalBinary(); !errors.Is(err, ErrProbe) {
				t.Fatalf("%v with a %d-byte value encoded: %v", typ, len(bad.Value), err)
			}
			// The same frame built by a trigger's encoder, retyped and resealed.
			as := bad
			as.Type = TypeTrigger
			data, err := as.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			data[1] = byte(typ)
			data = reseal(data)
			var out Message
			if err := out.UnmarshalBinary(data); !errors.Is(err, ErrProbe) {
				t.Fatalf("%v key %q value %d bytes decoded: %v", typ, bad.Key, len(bad.Value), err)
			}
			if DecodePeer(data, &out) {
				t.Fatalf("DecodePeer took a malformed %v", typ)
			}
		}
	}
}

// TestKeyHashFold: a summary's fold is an order-free multiset sum of the
// per-key StateHash — the same tuples in any order fold alike, and one more
// moves the fold and comes back out.
func TestKeyHashFold(t *testing.T) {
	keys := []string{"", "a", "b", "flow/1", "flow/2"}
	var fwd, rev uint64
	for i := range keys {
		fwd += StateHash(keys[i], uint64(i), []byte(keys[i]))
		j := len(keys) - 1 - i
		rev += StateHash(keys[j], uint64(j), []byte(keys[j]))
	}
	if fwd != rev {
		t.Fatal("fold depends on order")
	}
	if h := StateHash("flow/3", 1, nil); fwd+h == fwd || fwd+h-h != fwd {
		t.Fatal("one tuple more does not move the fold, or does not come back out")
	}
}

// TestStateHash: the hash tells tuples apart that a plain concatenation
// would not: a key/value boundary moved, an empty value, either end of the
// sequence space, a transposed key. The []byte and string forms of a key
// agree.
func TestStateHash(t *testing.T) {
	distinct := []uint64{
		StateHash("ab", 1, []byte("c")),
		StateHash("a", 1, []byte("bc")),
		StateHash("k", 1, nil),
		StateHash("k", 1, []byte{0}),
		StateHash("k", 0, nil),
		StateHash("k", 1<<64-1, nil),
		StateHash("ba", 1, []byte("c")),
		StateHash("", 0, nil),
	}
	seen := map[uint64]int{}
	for i, h := range distinct {
		if j, dup := seen[h]; dup || h == 0 {
			t.Fatalf("tuple %d hashes to %x, as tuple %d does (or to 0)", i, h, j)
		}
		seen[h] = i
	}
	if StateHash([]byte("flow/1"), 7, []byte("v")) != StateHash("flow/1", 7, []byte("v")) {
		t.Fatal("a key hashes differently as bytes and as a string")
	}
}

func TestAckBatchRoundTrip(t *testing.T) {
	in := Message{Type: TypeAckBatch, Seq: 12, Acks: []AckItem{
		{Kind: TypeAck, Seq: 3, Key: "flow/1"},
		{Kind: TypeRemovalAck, Seq: 9, Key: ""},
		{Kind: TypeAck, Seq: 1 << 40, Key: "a/very/long/key"},
	}}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != in.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(data), in.EncodedLen())
	}
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.Type != TypeAckBatch || out.Seq != 12 || out.Key != "" || out.Value != nil || out.Keys != nil {
		t.Fatalf("roundtrip header mismatch: %+v", out)
	}
	if len(out.Acks) != len(in.Acks) {
		t.Fatalf("acks = %v, want %v", out.Acks, in.Acks)
	}
	for i := range in.Acks {
		if out.Acks[i] != in.Acks[i] {
			t.Fatalf("item %d = %+v, want %+v", i, out.Acks[i], in.Acks[i])
		}
	}
}

func TestAckBatchEmptyList(t *testing.T) {
	in := Message{Type: TypeAckBatch, Seq: 1}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(out.Acks) != 0 {
		t.Fatalf("acks = %v, want none", out.Acks)
	}
}

func TestAckBatchRejectsMalformed(t *testing.T) {
	m := Message{Type: TypeAckBatch, Key: "k"}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrAckBatch) {
		t.Fatalf("batch with key err = %v", err)
	}
	m = Message{Type: TypeAckBatch, Acks: []AckItem{{Kind: TypeTrigger, Key: "k"}}}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrAckBatch) {
		t.Fatalf("bad item kind err = %v", err)
	}
	m = Message{Type: TypeAckBatch, Acks: make([]AckItem, MaxAckItems+1)}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too many items err = %v", err)
	}
	m = Message{Type: TypeAckBatch, Acks: []AckItem{{Kind: TypeAck, Key: strings.Repeat("k", MaxKeyLen+1)}}}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize item key err = %v", err)
	}

	good, err := (&Message{Type: TypeAckBatch, Seq: 1, Acks: []AckItem{
		{Kind: TypeAck, Seq: 2, Key: "aa"}, {Kind: TypeRemovalAck, Seq: 3, Key: "bb"},
	}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Nonzero single-key length on a batch type.
	bad := append([]byte{}, good...)
	bad[10], bad[11] = 0, 1
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrAckBatch) {
		t.Fatalf("nonzero key length err = %v", err)
	}
	// Count claims more items than the block holds.
	bad = append([]byte{}, good...)
	bad[16], bad[17] = 0, 9
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrShort) {
		t.Fatalf("short item list err = %v", err)
	}
	// Count claims fewer items, leaving trailing bytes.
	bad = append([]byte{}, good...)
	bad[16], bad[17] = 0, 1
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrAckBatch) {
		t.Fatalf("trailing bytes err = %v", err)
	}
	// Corrupt an item kind inside the block.
	bad = append([]byte{}, good...)
	bad[18] = byte(TypeNotify)
	if err := new(Message).UnmarshalBinary(reseal(bad)); !errors.Is(err, ErrAckBatch) {
		t.Fatalf("bad decoded kind err = %v", err)
	}
}

func TestAckBatchFits(t *testing.T) {
	if n := AckBatchFits(nil); n != 0 {
		t.Fatalf("AckBatchFits(nil) = %d", n)
	}
	small := make([]AckItem, 100)
	for i := range small {
		small[i] = AckItem{Kind: TypeAck, Seq: uint64(i), Key: "k/123"}
	}
	if n := AckBatchFits(small); n != 100 {
		t.Fatalf("AckBatchFits(small) = %d, want 100", n)
	}
	many := make([]AckItem, MaxAckItems+50)
	for i := range many {
		many[i] = AckItem{Kind: TypeAck}
	}
	if n := AckBatchFits(many); n != MaxAckItems {
		t.Fatalf("AckBatchFits(many) = %d, want %d", n, MaxAckItems)
	}
	// The byte budget caps before the count does for long keys.
	long := make([]AckItem, 100)
	for i := range long {
		long[i] = AckItem{Kind: TypeRemovalAck, Key: strings.Repeat("x", 400)}
	}
	n := AckBatchFits(long)
	if n >= 100 || n == 0 {
		t.Fatalf("AckBatchFits(long) = %d, want a partial prefix", n)
	}
	m := Message{Type: TypeAckBatch, Acks: long[:n]}
	if _, err := m.MarshalBinary(); err != nil {
		t.Fatalf("AckBatchFits prefix does not encode: %v", err)
	}
	m = Message{Type: TypeAckBatch, Acks: long[:n+1]}
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatal("AckBatchFits prefix is not maximal")
	}
}

func TestSummaryFits(t *testing.T) {
	if n, _ := SummaryFits(nil); n != 0 {
		t.Fatalf("SummaryFits(nil) = %d", n)
	}
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = strings.Repeat("k", 8)
	}
	if n, _ := SummaryFits(keys); n != 100 {
		t.Fatalf("SummaryFits(small) = %d, want 100", n)
	}
	// MaxSummaryKeys caps the count.
	many := make([]string, MaxSummaryKeys+50)
	for i := range many {
		many[i] = "k"
	}
	if n, _ := SummaryFits(many); n != MaxSummaryKeys {
		t.Fatalf("SummaryFits(many) = %d, want %d", n, MaxSummaryKeys)
	}
	// The byte budget caps before the count does for long keys.
	long := make([]string, 100)
	for i := range long {
		long[i] = strings.Repeat("x", 400)
	}
	n, frameLen := SummaryFits(long)
	if n >= 100 || n == 0 {
		t.Fatalf("SummaryFits(long) = %d, want a partial prefix", n)
	}
	m := Message{Type: TypeSummaryRefresh, Keys: long[:n]}
	if data, err := m.MarshalBinary(); err != nil || len(data) != frameLen {
		t.Fatalf("SummaryFits prefix does not encode to its %d bytes: %d bytes, %v", frameLen, len(data), err)
	}
	m = Message{Type: TypeSummaryRefresh, Keys: long[:n+1]}
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatal("SummaryFits prefix is not maximal")
	}
}

// fillKeys returns keys whose list items, overhead bytes each plus the key,
// use up exactly budget bytes: MaxKeyLen keys while one more fits, then one
// key of what is left. Neighbours begin with different bytes, so a
// front-coded list shares nothing between them.
func fillKeys(budget, overhead int) []string {
	var keys []string
	for budget >= overhead {
		n := min(MaxKeyLen, budget-overhead)
		keys = append(keys, strings.Repeat(string(rune('a'+len(keys)%26)), n))
		budget -= overhead + n
	}
	return keys
}

// TestMaxFrameLen: the largest legal message of every type encodes to at
// most MaxFrameLen bytes, and a traced trigger with a MaxKeyLen key and a
// MaxValueLen value, the longest frame there is, to exactly that many. The
// list types are filled to the limit their Fits function sets.
func TestMaxFrameLen(t *testing.T) {
	if MaxFrameLen != 8744 {
		t.Fatalf("MaxFrameLen = %d, want 12 + 20 + %d + 4 + %d + 4 = 8744", MaxFrameLen, MaxKeyLen, MaxValueLen)
	}
	trace := TraceContext{OriginNs: 1, HopNs: 2, Hops: 3}
	key, value := strings.Repeat("k", MaxKeyLen), make([]byte, MaxValueLen)

	// A summary item of a key of 128 bytes or more is the shared length, a
	// two-byte uvarint suffix length and the key; every key here is that long.
	summaryKeys := fillKeys(MaxValueLen-2-summaryFoldLen, 3)
	if n, _ := SummaryFits(summaryKeys); n != len(summaryKeys) || summaryBlockLen(TypeSummaryRefresh, summaryKeys) != MaxValueLen {
		t.Fatalf("summary list: SummaryFits takes %d of %d keys, block %d bytes", n, len(summaryKeys), summaryBlockLen(TypeSummaryRefresh, summaryKeys))
	}
	var acks []AckItem
	for _, k := range fillKeys(MaxValueLen-2, 1+8+2) {
		acks = append(acks, AckItem{Kind: TypeRemovalAck, Seq: ^uint64(0), Key: k})
	}
	if n := AckBatchFits(acks); n != len(acks) || ackBlockLen(acks) != MaxValueLen {
		t.Fatalf("ack batch: AckBatchFits takes %d of %d items, block %d bytes", n, len(acks), ackBlockLen(acks))
	}
	var sums []DigestKeySum
	for _, k := range fillKeys(MaxValueLen-(1+2+2+2+2), 8+2) {
		sums = append(sums, DigestKeySum{Key: k, Sum: ^uint64(0)})
	}
	if n := DigestDetailFits(sums); n != len(sums) {
		t.Fatalf("digest detail: DigestDetailFits takes %d of %d keys", n, len(sums))
	}
	detail, err := (&DigestReply{Kind: DigestDetail, Bucket: 1, Parts: 1, Keys: sums}).Encode()
	if err != nil || len(detail) != MaxValueLen {
		t.Fatalf("digest detail reply: %d bytes, %v", len(detail), err)
	}

	largest := []Message{
		{Type: TypeSummaryRefresh, Seq: ^uint64(0), Keys: summaryKeys, Fold: ^uint64(0)},
		{Type: TypeSummaryNack, Seq: ^uint64(0), Keys: summaryKeys},
		{Type: TypeAckBatch, Seq: ^uint64(0), Acks: acks},
		{Type: TypeDigestReply, Seq: ^uint64(0), Value: detail, Trace: trace},
		{Type: TypeDigest, Seq: ^uint64(0), Value: DigestRequest{Kind: DigestDetail}.Encode(), Trace: trace},
		{Type: TypeProbe, Seq: ^uint64(0), Value: AppendPair(nil, ^uint64(0), ^uint64(0))},
		{Type: TypeProbeAck, Seq: ^uint64(0), Value: AppendPair(nil, ^uint64(0), ^uint64(0))},
		{Type: TypeProbe, Seq: ^uint64(0), Key: key, Trace: trace},
		{Type: TypeProbeAck, Seq: ^uint64(0), Key: key, Trace: trace},
	}
	for typ := TypeTrigger; typ <= TypeNotify; typ++ {
		largest = append(largest, Message{Type: typ, Seq: ^uint64(0), Key: key, Value: value, Trace: trace})
	}
	seen := map[Type]bool{}
	for i := range largest {
		m := &largest[i]
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if len(data) != m.EncodedLen() || len(data) > MaxFrameLen {
			t.Errorf("%s: %d bytes (EncodedLen %d), over MaxFrameLen %d", m.Type, len(data), m.EncodedLen(), MaxFrameLen)
		}
		if m.Type == TypeTrigger && len(data) != MaxFrameLen {
			t.Errorf("the largest trigger is %d bytes, want exactly MaxFrameLen %d", len(data), MaxFrameLen)
		}
		if err := new(Message).UnmarshalBinary(data); err != nil {
			t.Errorf("%s: the largest frame does not decode: %v", m.Type, err)
		}
		seen[m.Type] = true
	}
	for typ := TypeTrigger; typ.Valid(); typ++ {
		if !seen[typ] {
			t.Errorf("no largest %s encoded", typ)
		}
	}
}
