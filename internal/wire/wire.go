// Package wire defines the on-the-wire encoding for the signaling runtime
// (internal/signal): a compact, versioned, checksummed binary format for
// the message types the generic protocols exchange. The format is
// deliberately simple — fixed header, length-prefixed key and value, CRC32
// trailer — so a datagram is self-contained and corruption is detected
// before it can touch protocol state.
//
// Layout (big endian):
//
//	offset  size  field
//	0       1     version (currently 1)
//	1       1     type
//	2       8     sequence number
//	10      2     key length K (≤ MaxKeyLen)
//	12      K     key bytes
//	12+K    4     value length V (≤ MaxValueLen)
//	16+K    V     value bytes
//	16+K+V  4     CRC32 (IEEE) of bytes [0, 16+K+V)
//
// The two summary types (TypeSummaryRefresh, TypeSummaryNack) carry a key
// *list* instead of a single key/value pair — RFC 2961-style refresh
// reduction, where one datagram renews (or NACKs) many keys at once. For
// them K is always 0 and the value region holds the list:
//
//	2     key count N (≤ MaxSummaryKeys)
//	8     the list's fold (TypeSummaryRefresh only, see StateHash)
//	N ×   { 1: shared S, uvarint: suffix length L, L: suffix bytes }
//
// The list is front-coded: each key is the first S bytes of the key before
// it followed by its own L-byte suffix, so a sorted list, whose neighbours
// share long prefixes, names each key by little more than what sets it
// apart. S is the longest prefix the two keys share, up to 255, and 0 for
// the first key; L is a minimal uvarint, and S + L ≤ MaxKeyLen. Decoding
// holds every item to those rules — S within the previous key, S maximal
// (below 255 the suffix cannot begin with the previous key's next byte),
// the varint minimal — so each list has exactly one encoding. A key under
// 128 bytes that shares nothing with the one before is { 0, L, key },
// byte-identical to the { 2: key length, key bytes } items of the layout
// before front coding, so no list grows; a list whose neighbours share a
// leading byte does not decode under the other layout, and the two ends of
// a summary-mode link upgrade together.
//
// A summary refresh's fold is the sum, modulo 2⁶⁴, of StateHash over the
// listed keys as the sender holds them — each with its sequence number and
// value — so a receiver tells a list it holds at the sender's versions from
// one it holds some stale value of without either end naming a version per
// key. The fold has no compatibility path: the two ends of a summary-mode
// link upgrade together.
//
// TypeAckBatch mirrors that reduction on the reply path: one datagram
// carries many coalesced acknowledgements, each with its own kind (ack or
// removal-ack), sequence number, and key. K is 0 and the value region
// holds the item list:
//
//	2     item count N (≤ MaxAckItems)
//	N ×   { 1: ack kind, 8: sequence, 2: key length, key bytes }
//
// Version 2 frames carry an optional extension block between the fixed
// header and the key — today a single trace-context TLV stamped on
// sampled keys' datagrams for cross-node causal tracing:
//
//	offset  size  field
//	0       1     version (2)
//	1       1     type
//	2       8     sequence number
//	10      2     key length K
//	12      1     extension block length E
//	13      E     extension TLVs { 1: ext type, 1: ext length, payload }
//	13+E    K     key bytes
//	...           value length, value, CRC32 as in version 1
//
// A version-1 frame encodes byte-identically to before the extension
// existed; version 2 is emitted only when a message actually carries a
// trace context, so untraced traffic is wire-compatible with old
// decoders. Decoding is strict: a v2 frame must carry exactly the
// canonical trace TLV (unknown or duplicate TLVs are rejected rather
// than silently dropped, preserving the decode/re-encode round-trip the
// fuzzer enforces). Summary and ack-batch frames never carry extensions.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

// Version is the baseline wire format version.
const Version = 1

// VersionExt is the extended wire format version: identical to Version
// plus an extension block (currently the trace-context TLV) between the
// fixed header and the key. Encoders emit it only when a message carries
// a sampled trace context.
const VersionExt = 2

// Extension TLV types carried by VersionExt frames.
const (
	// ExtTrace is the trace-context TLV: 8-byte origin timestamp, 8-byte
	// hop timestamp, 1-byte hop count (all big endian).
	ExtTrace = 1

	extTraceLen  = 8 + 8 + 1       // TLV payload
	extTraceTLV  = 2 + extTraceLen // type byte, length byte, payload
	extRegionLen = 1 + extTraceTLV // block length byte + the one TLV
)

// TraceContext is the hop-propagated causal-tracing context carried by
// sampled keys' datagrams as a VersionExt extension. Timestamps are
// nanoseconds since the runtime's shared sequence epoch, so they are
// meaningful across virtual-clock replays and (modulo clock skew)
// across hosts.
type TraceContext struct {
	// OriginNs is the origin endpoint's stamp, propagated unchanged by
	// relays: receiver time minus OriginNs is the end-to-end install
	// latency across however many hops the context has crossed. A zero
	// OriginNs means "no trace context" (the sampled predicate).
	OriginNs int64
	// HopNs is the immediate sender's send stamp, re-stamped at every
	// hop: receiver time minus HopNs is the one-hop propagation latency.
	HopNs int64
	// Hops counts store-and-forward hops already traversed (0 on the
	// origin's own transmission; a relay re-propagates with Hops+1).
	Hops uint8
}

// Sampled reports whether the context is present (the key was sampled
// for tracing at the origin).
func (tc TraceContext) Sampled() bool { return tc.OriginNs != 0 }

// Size limits keep a message inside a single conventional UDP datagram.
const (
	// MaxKeyLen bounds the state key.
	MaxKeyLen = 512
	// MaxValueLen bounds the state value payload.
	MaxValueLen = 8192
	// MaxSummaryKeys bounds the key list of a summary message. The list
	// must also fit the MaxValueLen byte budget.
	MaxSummaryKeys = 1024
	// MaxAckItems bounds the item list of an ack batch. The list must
	// also fit the MaxValueLen byte budget (each item costs 11 bytes plus
	// its key, so 512 zero-length-key items still fit).
	MaxAckItems = 512
	// MaxFrameLen is the longest datagram the codec encodes or decodes: a
	// traced key/value frame with a MaxKeyLen key and a MaxValueLen value
	// (header, trace extension, key, value length, value, checksum), 8,744
	// bytes. The list types keep their lists inside MaxValueLen and carry no
	// extension, so they are shorter. A receive buffer this long never
	// truncates a frame a peer could have encoded.
	MaxFrameLen = headerLen + extRegionLen + MaxKeyLen + 4 + MaxValueLen + trailerLen
)

// Type enumerates signaling message types.
type Type uint8

// Message types of the generic protocols (paper Figure 1).
const (
	// TypeTrigger installs or updates state (best-effort or reliable).
	TypeTrigger Type = iota + 1
	// TypeRefresh is a periodic soft-state refresh.
	TypeRefresh
	// TypeAck acknowledges a trigger (reliable-trigger protocols).
	TypeAck
	// TypeRemoval explicitly removes state.
	TypeRemoval
	// TypeRemovalAck acknowledges a removal (reliable-removal protocols).
	TypeRemovalAck
	// TypeNotify informs the sender that its state was removed at the
	// receiver (timeout or external signal).
	TypeNotify
	// TypeSummaryRefresh renews many keys in one datagram (RFC 2961-style
	// refresh reduction). It carries a key list and the list's fold, no
	// value.
	TypeSummaryRefresh
	// TypeSummaryNack lists keys from a summary refresh that the receiver
	// does not hold, telling the sender to fall back to full triggers.
	TypeSummaryNack
	// TypeAckBatch coalesces many acknowledgements (acks and removal-acks)
	// into one datagram — the reply-path counterpart of summary refresh.
	TypeAckBatch
	// TypeProbe is the hard-state receiver's liveness probe — the paper's
	// "external removal signal" made concrete — in one of two shapes. A peer
	// probe asks a sender whether it is alive: the key is empty and the value
	// is the receiver's pair for that sender (PairLen bytes: how many of its
	// keys the receiver holds, and their fold, see StateHash); one goes to
	// every sender holding state once per probe interval. A per-key probe
	// asks whether the sender still owns one key: the key is set, Seq echoes
	// the receiver's latest accepted sequence for it, and there is no value;
	// the receiver sends these only while it audits a sender whose pair
	// disagreed with its own. The value's length tells the shapes apart, so
	// a per-key probe for the user key "" is still a per-key probe; any other
	// value length, or a pair with a key, is malformed (ErrProbe).
	TypeProbe
	// TypeProbeAck answers a probe in the probe's shape. A peer probe-ack
	// carries the sender's own pair for the receiver (its live keys there,
	// and their fold) and Seq echoes the probe's. A per-key probe-ack answers
	// for a key the sender still owns; a sender that no longer owns the key
	// stays silent, letting the receiver's key-level miss count declare the
	// state orphaned.
	TypeProbeAck
	// TypeDigest asks a peer for its state-table digest — the census
	// request of the convergence auditor. The value region carries a
	// DigestRequest (see digest.go); Seq is a requester-chosen nonce that
	// the reply echoes.
	TypeDigest
	// TypeDigestReply answers a digest request: either the per-bucket
	// digest sums, or the per-key digests of one bucket being resolved
	// down to divergent keys. The value region carries the reply payload
	// (see digest.go).
	TypeDigestReply
	maxType
)

// NumTypes is the number of defined message types plus one, so a valid
// Type can index a [NumTypes] counter array directly.
const NumTypes = int(maxType)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeTrigger:
		return "trigger"
	case TypeRefresh:
		return "refresh"
	case TypeAck:
		return "ack"
	case TypeRemoval:
		return "removal"
	case TypeRemovalAck:
		return "removal-ack"
	case TypeNotify:
		return "notify"
	case TypeSummaryRefresh:
		return "summary-refresh"
	case TypeSummaryNack:
		return "summary-nack"
	case TypeAckBatch:
		return "ack-batch"
	case TypeProbe:
		return "probe"
	case TypeProbeAck:
		return "probe-ack"
	case TypeDigest:
		return "digest"
	case TypeDigestReply:
		return "digest-reply"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Valid reports whether t is a known message type.
func (t Type) Valid() bool { return t >= TypeTrigger && t < maxType }

// Summary reports whether t carries a key list instead of a key/value pair.
func (t Type) Summary() bool { return t == TypeSummaryRefresh || t == TypeSummaryNack }

// Batch reports whether t carries a coalesced-ack list instead of a
// key/value pair.
func (t Type) Batch() bool { return t == TypeAckBatch }

// Probe reports whether t is one of the two liveness-probe types.
func (t Type) Probe() bool { return t == TypeProbe || t == TypeProbeAck }

// PairLen is the value length of a peer probe or peer probe-ack: an 8-byte
// key count, then the 8-byte fold of those keys, both big endian.
const PairLen = 16

// StateHash is the fixed, seedless 64-bit hash of one piece of state: its
// user key, the sequence number it was triggered under and its value. A
// fold is its sum modulo 2⁶⁴ over a set of keys, which is order-free and
// takes one key in or out in O(1); both ends of a link keep the fold of
// what they hold for the other, so equal folds mean the same keys at the
// same versions (up to a 64-bit collision). It is FNV-1a over the key's
// length, the key, the sequence number, the value's length and the value,
// then the murmur3 finalizer, so tuples differing in one byte differ in
// every bit of the sum.
func StateHash[K ~string | ~[]byte](key K, seq uint64, value []byte) uint64 {
	h := fnvWord(14695981039346269563, uint64(len(key)))
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	h = fnvWord(fnvWord(h, seq), uint64(len(value)))
	for _, b := range value {
		h = (h ^ uint64(b)) * fnvPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

const fnvPrime = 1099511628211

// fnvWord runs FNV-1a over w's eight bytes, low byte first.
func fnvWord(h, w uint64) uint64 {
	for n := 0; n < 64; n += 8 {
		h = (h ^ w>>n&0xff) * fnvPrime
	}
	return h
}

// AppendPair appends the value of a peer probe or peer probe-ack.
func AppendPair(dst []byte, count, fold uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, count), fold)
}

// Pair returns the (count, fold) a peer probe or peer probe-ack carries;
// ok is false for every other message, a per-key probe included.
func (m *Message) Pair() (count, fold uint64, ok bool) {
	if !m.Type.Probe() || len(m.Value) != PairLen {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(m.Value), binary.BigEndian.Uint64(m.Value[8:]), true
}

// peerFrameLen is the encoded size of a version-1 peer probe or probe-ack.
const peerFrameLen = headerLen + 4 + PairLen + trailerLen

// DecodePeer is UnmarshalBinary for a version-1 peer probe or peer
// probe-ack, without the copy: m's value aliases data, so nothing is
// allocated. It reports false and leaves m alone for anything else,
// malformed frames included — UnmarshalBinary says why those fail.
func DecodePeer(data []byte, m *Message) bool {
	if len(data) != peerFrameLen || data[0] != Version || !Type(data[1]).Probe() ||
		binary.BigEndian.Uint16(data[10:]) != 0 || binary.BigEndian.Uint32(data[12:]) != PairLen {
		return false
	}
	body := data[:len(data)-trailerLen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(body):]) {
		return false
	}
	*m = Message{Type: Type(data[1]), Seq: binary.BigEndian.Uint64(data[2:]), Value: body[headerLen+4:]}
	return true
}

// probeShapeOK reports whether a probe-type frame with this key length and
// value length has one of the two shapes TypeProbe documents.
func probeShapeOK(keyLen, valLen int) bool {
	return valLen == 0 || (valLen == PairLen && keyLen == 0)
}

// Decoding and encoding errors.
var (
	ErrShort    = errors.New("wire: message truncated")
	ErrVersion  = errors.New("wire: unsupported version")
	ErrType     = errors.New("wire: unknown message type")
	ErrChecksum = errors.New("wire: checksum mismatch")
	ErrTooLarge = errors.New("wire: key or value exceeds size limit")
	ErrSummary  = errors.New("wire: malformed summary message")
	ErrAckBatch = errors.New("wire: malformed ack batch")
	ErrExt      = errors.New("wire: malformed extension block")
	ErrDigest   = errors.New("wire: malformed digest payload")
	ErrProbe    = errors.New("wire: malformed probe")
)

// AckItem is one coalesced acknowledgement inside a TypeAckBatch message.
type AckItem struct {
	// Kind is the acknowledgement being carried: TypeAck or TypeRemovalAck.
	Kind Type
	// Seq echoes the sequence number being acknowledged.
	Seq uint64
	// Key names the acknowledged state.
	Key string
}

// Message is one signaling datagram.
type Message struct {
	// Type is the message type.
	Type Type
	// Seq orders triggers/removals and matches ACKs to them.
	Seq uint64
	// Key names the piece of signaling state. Empty for summary types.
	Key string
	// Value is the state payload (nil for ACKs, removals, notifies and
	// summary types).
	Value []byte
	// Keys is the key list of a summary message; nil for all other types.
	Keys []string
	// Fold is a summary refresh's fold of its key list, as the sender holds
	// the keys (StateHash); 0 for all other types.
	Fold uint64
	// Acks is the item list of an ack batch; nil for all other types.
	Acks []AckItem
	// Trace is the optional causal-tracing context. When Sampled, the
	// message encodes as a VersionExt frame carrying the trace TLV;
	// otherwise the encoding is byte-identical to version 1. Summary and
	// ack-batch messages never carry a context (it is ignored on encode).
	Trace TraceContext
}

const headerLen = 1 + 1 + 8 + 2 // version, type, seq, key length
const trailerLen = 4            // CRC32

// EncodedLen returns the encoded size of m.
func (m *Message) EncodedLen() int {
	if m.Type.Summary() {
		return headerLen + 4 + summaryBlockLen(m.Type, m.Keys) + trailerLen
	}
	if m.Type.Batch() {
		return headerLen + 4 + ackBlockLen(m.Acks) + trailerLen
	}
	n := headerLen + len(m.Key) + 4 + len(m.Value) + trailerLen
	if m.Trace.Sampled() {
		n += extRegionLen
	}
	return n
}

// summaryFoldLen is the size of a summary refresh's fold.
const summaryFoldLen = 8

// summaryBlockLen is the encoded size of a summary key list of type t.
func summaryBlockLen(t Type, keys []string) int {
	n := 2
	if t == TypeSummaryRefresh {
		n += summaryFoldLen
	}
	prev := ""
	for _, k := range keys {
		n += keyItemLen(len(k) - sharedPrefix(prev, k))
		prev = k
	}
	return n
}

// maxShared is the longest prefix one key list item takes from the key
// before it: the shared length is one byte.
const maxShared = 255

// sharedPrefix is the shared length the item for key after prev carries:
// the longest prefix the two have in common, up to maxShared. It compares
// eight bytes at a time, since sorted neighbours share most of their bytes.
func sharedPrefix(prev, key string) int {
	n := min(len(prev), len(key), maxShared)
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := word(prev, i) ^ word(key, i); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && prev[i] == key[i] {
		i++
	}
	return i
}

// word is the eight bytes of s from i on, little endian.
func word(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// keyItemLen is the encoded size of a key list item with a suffix of n
// bytes: the shared length, the suffix length's uvarint (two bytes from 128
// on, since n ≤ MaxKeyLen) and the suffix.
func keyItemLen(n int) int {
	if n < 0x80 {
		return 2 + n
	}
	return 3 + n
}

// appendKeyItem appends the key list item for key after prev.
func appendKeyItem(dst []byte, prev, key string) []byte {
	shared := sharedPrefix(prev, key)
	suffix := key[shared:]
	if n := len(suffix); n < 0x80 {
		dst = append(dst, byte(shared), byte(n))
	} else {
		dst = append(dst, byte(shared), byte(n)|0x80, byte(n>>7))
	}
	return append(dst, suffix...)
}

// checkKeyList validates a key list of n items under the rules that give
// a list one encoding (package comment), rebuilding each key in key's
// array, which has room for a MaxKeyLen key. Every decoder calls it before
// it reads a key out of the list with nextKey.
func checkKeyList(list []byte, n int, key []byte) error {
	for i := 0; i < n; i++ {
		if len(list) < 2 {
			return ErrShort
		}
		shared, sl, start := int(list[0]), uint64(list[1]), 2
		if sl >= 0x80 {
			v, w := binary.Uvarint(list[1:])
			if w == 0 {
				return ErrShort
			}
			if w < 0 || list[w] == 0 {
				return fmt.Errorf("%w: suffix length is not a minimal uvarint", ErrSummary)
			}
			sl, start = v, 1+w
		}
		if shared > len(key) {
			return fmt.Errorf("%w: a key shares %d bytes of a %d-byte key", ErrSummary, shared, len(key))
		}
		if sl > uint64(MaxKeyLen-shared) {
			return fmt.Errorf("%w: summary key %d + %d bytes", ErrTooLarge, shared, sl)
		}
		end := start + int(sl)
		if len(list) < end {
			return ErrShort
		}
		if shared < maxShared && shared < len(key) && start < end && list[start] == key[shared] {
			return fmt.Errorf("%w: a key shares more than the %d bytes its item names", ErrSummary, shared)
		}
		key, list = append(key[:shared], list[start:end]...), list[end:]
	}
	if len(list) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrSummary, len(list))
	}
	return nil
}

// nextKey rebuilds the key of the item at the head of a list checkKeyList
// passed over the key before it, and returns it and the rest of the list.
// A checked list's suffix lengths are one or two varint bytes.
func nextKey(key, list []byte) ([]byte, []byte) {
	start, end := 2, 2+int(list[1])
	if list[1] >= 0x80 {
		start, end = 3, 3+(int(list[1]&0x7f)|int(list[2])<<7)
	}
	return append(key[:list[0]], list[start:end]...), list[end:]
}

// ackBlockLen is the encoded size of an ack-batch item list.
func ackBlockLen(items []AckItem) int {
	n := 2
	for i := range items {
		n += 1 + 8 + 2 + len(items[i].Key)
	}
	return n
}

// SummaryFits reports how many of keys fit one summary refresh, the
// largest prefix within both MaxSummaryKeys and the MaxValueLen byte
// budget, and the length of the refresh frame that carries them (a NACK of
// the same keys, which has no fold, is summaryFoldLen bytes shorter).
// Senders use it to chunk large key sets and size their buffers; each key
// is compared with the one before it once. Since the list is front-coded,
// what fits depends on the order: sorted keys fit the most.
func SummaryFits(keys []string) (n, frameLen int) {
	bytes, prev := 2+summaryFoldLen, ""
	for _, k := range keys {
		item := keyItemLen(len(k) - sharedPrefix(prev, k))
		if n >= MaxSummaryKeys || bytes+item > MaxValueLen {
			break
		}
		bytes += item
		prev = k
		n++
	}
	return n, headerLen + 4 + bytes + trailerLen
}

// AckBatchFits reports how many of items fit one ack-batch datagram: the
// largest prefix within both MaxAckItems and the MaxValueLen byte budget.
// Receivers use it to chunk large coalesced-reply sets.
func AckBatchFits(items []AckItem) int {
	n, bytes := 0, 2
	for i := range items {
		if n >= MaxAckItems || bytes+1+8+2+len(items[i].Key) > MaxValueLen {
			break
		}
		bytes += 1 + 8 + 2 + len(items[i].Key)
		n++
	}
	return n
}

// MarshalBinary encodes m.
func (m *Message) MarshalBinary() ([]byte, error) {
	return m.Append(make([]byte, 0, m.EncodedLen()))
}

// Append encodes m onto dst and returns the extended slice.
func (m *Message) Append(dst []byte) ([]byte, error) {
	if !m.Type.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrType, m.Type)
	}
	if m.Type.Summary() {
		return m.appendSummary(dst)
	}
	if m.Type.Batch() {
		return m.appendAckBatch(dst)
	}
	if len(m.Key) > MaxKeyLen || len(m.Value) > MaxValueLen {
		return nil, fmt.Errorf("%w: key %d bytes, value %d bytes", ErrTooLarge, len(m.Key), len(m.Value))
	}
	if m.Type.Probe() && !probeShapeOK(len(m.Key), len(m.Value)) {
		return nil, fmt.Errorf("%w: key %d bytes, value %d bytes", ErrProbe, len(m.Key), len(m.Value))
	}
	start := len(dst)
	version := byte(Version)
	if m.Trace.Sampled() {
		version = VersionExt
	}
	dst = append(dst, version, byte(m.Type))
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Key)))
	if version == VersionExt {
		dst = append(dst, extTraceTLV, ExtTrace, extTraceLen)
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Trace.OriginNs))
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Trace.HopNs))
		dst = append(dst, m.Trace.Hops)
	}
	dst = append(dst, m.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Value)))
	dst = append(dst, m.Value...)
	sum := crc32.ChecksumIEEE(dst[start:])
	dst = binary.BigEndian.AppendUint32(dst, sum)
	return dst, nil
}

// appendSummary encodes a summary message: zero key length, and the key
// list in the value region.
func (m *Message) appendSummary(dst []byte) ([]byte, error) {
	if m.Key != "" || m.Value != nil || m.Acks != nil {
		return nil, fmt.Errorf("%w: %s carries a key list, not key/value", ErrSummary, m.Type)
	}
	if m.Fold != 0 && m.Type != TypeSummaryRefresh {
		return nil, fmt.Errorf("%w: %s carries no fold", ErrSummary, m.Type)
	}
	if len(m.Keys) > MaxSummaryKeys {
		return nil, fmt.Errorf("%w: %d keys", ErrTooLarge, len(m.Keys))
	}
	// One pass: each item is written as its key is checked, and the block
	// length is filled in once the list is.
	start := len(dst)
	dst = append(dst, Version, byte(m.Type))
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, 0) // no single key
	blockAt := len(dst) + 4
	dst = binary.BigEndian.AppendUint32(dst, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Keys)))
	if m.Type == TypeSummaryRefresh {
		dst = binary.BigEndian.AppendUint64(dst, m.Fold)
	}
	prev := ""
	for _, k := range m.Keys {
		if len(k) > MaxKeyLen {
			return nil, fmt.Errorf("%w: summary key %d bytes", ErrTooLarge, len(k))
		}
		if dst = appendKeyItem(dst, prev, k); len(dst)-blockAt > MaxValueLen {
			return nil, fmt.Errorf("%w: summary block over %d bytes", ErrTooLarge, MaxValueLen)
		}
		prev = k
	}
	binary.BigEndian.PutUint32(dst[blockAt-4:], uint32(len(dst)-blockAt))
	sum := crc32.ChecksumIEEE(dst[start:])
	dst = binary.BigEndian.AppendUint32(dst, sum)
	return dst, nil
}

// SummaryFrame reads the key count out of a summary datagram appendSummary
// encoded. It validates nothing: it is for a sender re-reading frames it
// encoded itself, never for bytes off the network.
func SummaryFrame(frame []byte) (keys int) {
	return int(binary.BigEndian.Uint16(frame[headerLen+4:]))
}

// appendAckBatch encodes an ack batch: zero key length, and the item list
// in the value region.
func (m *Message) appendAckBatch(dst []byte) ([]byte, error) {
	if m.Key != "" || m.Value != nil || m.Keys != nil {
		return nil, fmt.Errorf("%w: %s carries an ack list, not key/value", ErrAckBatch, m.Type)
	}
	if len(m.Acks) > MaxAckItems {
		return nil, fmt.Errorf("%w: %d ack items", ErrTooLarge, len(m.Acks))
	}
	block := ackBlockLen(m.Acks)
	if block > MaxValueLen {
		return nil, fmt.Errorf("%w: ack block %d bytes", ErrTooLarge, block)
	}
	for i := range m.Acks {
		if k := m.Acks[i].Kind; k != TypeAck && k != TypeRemovalAck {
			return nil, fmt.Errorf("%w: item kind %v", ErrAckBatch, k)
		}
		if len(m.Acks[i].Key) > MaxKeyLen {
			return nil, fmt.Errorf("%w: ack key %d bytes", ErrTooLarge, len(m.Acks[i].Key))
		}
	}
	start := len(dst)
	dst = append(dst, Version, byte(m.Type))
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, 0) // no single key
	dst = binary.BigEndian.AppendUint32(dst, uint32(block))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Acks)))
	for i := range m.Acks {
		dst = append(dst, byte(m.Acks[i].Kind))
		dst = binary.BigEndian.AppendUint64(dst, m.Acks[i].Seq)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Acks[i].Key)))
		dst = append(dst, m.Acks[i].Key...)
	}
	sum := crc32.ChecksumIEEE(dst[start:])
	dst = binary.BigEndian.AppendUint32(dst, sum)
	return dst, nil
}

// PeekType returns the (unvalidated) message type of an encoded datagram,
// so read loops can route hot message kinds to allocation-free decoders
// before paying for a full decode. Callers must still validate the
// datagram with UnmarshalBinary or VisitSummaryKeys before acting on it.
func PeekType(data []byte) Type {
	if len(data) < 2 {
		return 0
	}
	return Type(data[1])
}

// VisitSummaryKeys decodes a summary-refresh datagram in place: it runs
// the full validation of UnmarshalBinary (checksum, version, structure),
// then calls visit once per key with the datagram's sequence number and a
// key slice aliasing data. No per-key strings or key slices are
// allocated, which is what keeps a receiver renewing millions of keys per
// second off the garbage collector. visit is only called if the whole
// datagram validated first, and must not retain the slice past its
// return. It is SummaryKeyList followed by VisitKeyList, with a scratch
// buffer of its own; a caller walking many lists keeps one and calls those
// two itself.
func VisitSummaryKeys(data []byte, visit func(seq uint64, key []byte)) (seq uint64, err error) {
	seq, _, n, list, err := SummaryKeyList(data)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, MaxKeyLen)
	return seq, VisitKeyList(seq, n, list, &buf, visit)
}

// SummaryKeyList validates a summary-refresh datagram's envelope —
// checksum, version, type, the zero key length and the block length — and
// returns its sequence number, its fold, its declared key count and its key
// list: the length-prefixed keys between the fold and the checksum,
// aliasing data. The list's own structure is VisitKeyList's to check. A
// sender in steady state repeats a list and its fold, so a receiver that
// kept the fold of the last one compares the two and walks nothing.
func SummaryKeyList(data []byte) (seq, fold uint64, n int, list []byte, err error) {
	if len(data) < headerLen+4+trailerLen {
		return 0, 0, 0, nil, ErrShort
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return 0, 0, 0, nil, ErrChecksum
	}
	if body[0] != Version {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d", ErrVersion, body[0])
	}
	if Type(body[1]) != TypeSummaryRefresh {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d", ErrType, body[1])
	}
	seq = binary.BigEndian.Uint64(body[2:10])
	if binary.BigEndian.Uint16(body[10:12]) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: nonzero key length", ErrSummary)
	}
	rest := body[12:]
	if len(rest) < 4 {
		return 0, 0, 0, nil, ErrShort
	}
	valLen := int(binary.BigEndian.Uint32(rest[:4]))
	if valLen > MaxValueLen {
		return 0, 0, 0, nil, ErrTooLarge
	}
	block := rest[4:]
	if len(block) != valLen || len(block) < 2+summaryFoldLen {
		return 0, 0, 0, nil, ErrShort
	}
	n = int(binary.BigEndian.Uint16(block))
	if n > MaxSummaryKeys {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d summary keys", ErrTooLarge, n)
	}
	return seq, binary.BigEndian.Uint64(block[2:]), n, block[2+summaryFoldLen:], nil
}

// VisitKeyList walks a key list SummaryKeyList returned, calling visit once
// per key with seq. The whole list is validated before any of it is
// visited, so a datagram truncated mid-list renews nothing (exactly like
// the copying decoder). Each key is rebuilt in the caller's scratch *buf,
// after the bytes *buf holds on entry, which stay as a prefix: while visit
// runs, *buf is that prefix followed by the key, and key is its tail, so a
// caller that names state by a prefix and a key finds the name built.
// visit must not write the buffer: the next key is rebuilt over it. The
// buffer grows at most once, to hold the prefix and a MaxKeyLen key, so a
// walk with a scratch of that capacity allocates nothing; *buf has its
// entry length again on return.
func VisitKeyList(seq uint64, n int, list []byte, buf *[]byte, visit func(seq uint64, key []byte)) error {
	p := len(*buf)
	b := slices.Grow(*buf, MaxKeyLen)
	*buf = b
	if err := checkKeyList(list, n, b[p:p]); err != nil {
		return err
	}
	key := b[p:p]
	for i := 0; i < n; i++ {
		key, list = nextKey(key, list)
		*buf = (*buf)[:p+len(key)]
		visit(seq, key)
	}
	*buf = b[:p]
	return nil
}

// UnmarshalBinary decodes data into m. The key and value are copied, so m
// does not alias data after return.
func (m *Message) UnmarshalBinary(data []byte) error {
	if len(data) < headerLen+4+trailerLen {
		return ErrShort
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return ErrChecksum
	}
	if body[0] != Version && body[0] != VersionExt {
		return fmt.Errorf("%w: %d", ErrVersion, body[0])
	}
	typ := Type(body[1])
	if !typ.Valid() {
		return fmt.Errorf("%w: %d", ErrType, body[1])
	}
	seq := binary.BigEndian.Uint64(body[2:10])
	keyLen := int(binary.BigEndian.Uint16(body[10:12]))
	if keyLen > MaxKeyLen {
		return ErrTooLarge
	}
	if typ.Summary() && keyLen != 0 {
		return fmt.Errorf("%w: nonzero key length", ErrSummary)
	}
	if typ.Batch() && keyLen != 0 {
		return fmt.Errorf("%w: nonzero key length", ErrAckBatch)
	}
	rest := body[12:]
	var trace TraceContext
	if body[0] == VersionExt {
		// Extensions ride point-to-point state messages only; the list
		// types never carry them.
		if typ.Summary() || typ.Batch() {
			return fmt.Errorf("%w: extension on %s frame", ErrExt, typ)
		}
		// Strict canonical form: exactly the one known TLV, so every
		// accepted frame re-encodes to the identical bytes.
		if len(rest) < extRegionLen {
			return ErrShort
		}
		if rest[0] != extTraceTLV {
			return fmt.Errorf("%w: block length %d", ErrExt, rest[0])
		}
		if rest[1] != ExtTrace || rest[2] != extTraceLen {
			return fmt.Errorf("%w: TLV %d/%d", ErrExt, rest[1], rest[2])
		}
		trace.OriginNs = int64(binary.BigEndian.Uint64(rest[3:11]))
		trace.HopNs = int64(binary.BigEndian.Uint64(rest[11:19]))
		trace.Hops = rest[19]
		if !trace.Sampled() {
			return fmt.Errorf("%w: zero origin stamp", ErrExt)
		}
		rest = rest[extRegionLen:]
	}
	if len(rest) < keyLen+4 {
		return ErrShort
	}
	key := string(rest[:keyLen])
	rest = rest[keyLen:]
	valLen := int(binary.BigEndian.Uint32(rest[:4]))
	if valLen > MaxValueLen {
		return ErrTooLarge
	}
	rest = rest[4:]
	if len(rest) != valLen {
		return ErrShort
	}
	if typ.Probe() && !probeShapeOK(keyLen, valLen) {
		return fmt.Errorf("%w: key %d bytes, value %d bytes", ErrProbe, keyLen, valLen)
	}
	if typ.Summary() {
		keys, fold, err := decodeSummaryBlock(typ, rest)
		if err != nil {
			return err
		}
		m.Type = typ
		m.Seq = seq
		m.Key = ""
		m.Value = nil
		m.Keys = keys
		m.Fold = fold
		m.Acks = nil
		m.Trace = TraceContext{}
		return nil
	}
	if typ.Batch() {
		acks, err := decodeAckBlock(rest)
		if err != nil {
			return err
		}
		m.Type = typ
		m.Seq = seq
		m.Key = ""
		m.Value = nil
		m.Keys = nil
		m.Fold = 0
		m.Acks = acks
		m.Trace = TraceContext{}
		return nil
	}
	var value []byte
	if valLen > 0 {
		value = make([]byte, valLen)
		copy(value, rest)
	}
	m.Type = typ
	m.Seq = seq
	m.Key = key
	m.Value = value
	m.Keys = nil
	m.Fold = 0
	m.Acks = nil
	m.Trace = trace
	return nil
}

// decodeSummaryBlock parses the key list, and a refresh's fold, of a
// summary message of type t. Keys are copied, so the result does not alias
// block.
func decodeSummaryBlock(t Type, block []byte) (keys []string, fold uint64, err error) {
	if len(block) < 2 {
		return nil, 0, ErrShort
	}
	n := int(binary.BigEndian.Uint16(block))
	if n > MaxSummaryKeys {
		return nil, 0, fmt.Errorf("%w: %d summary keys", ErrTooLarge, n)
	}
	block = block[2:]
	if t == TypeSummaryRefresh {
		if len(block) < summaryFoldLen {
			return nil, 0, ErrShort
		}
		fold, block = binary.BigEndian.Uint64(block), block[summaryFoldLen:]
	}
	var scratch [MaxKeyLen]byte
	if err := checkKeyList(block, n, scratch[:0]); err != nil {
		return nil, 0, err
	}
	keys = make([]string, n)
	key := scratch[:0]
	for i := range keys {
		key, block = nextKey(key, block)
		keys[i] = string(key)
	}
	return keys, fold, nil
}

// decodeAckBlock parses the item list of an ack batch. Keys are copied, so
// the result does not alias block.
func decodeAckBlock(block []byte) ([]AckItem, error) {
	if len(block) < 2 {
		return nil, ErrShort
	}
	n := int(binary.BigEndian.Uint16(block))
	if n > MaxAckItems {
		return nil, fmt.Errorf("%w: %d ack items", ErrTooLarge, n)
	}
	block = block[2:]
	items := make([]AckItem, 0, n)
	for i := 0; i < n; i++ {
		if len(block) < 1+8+2 {
			return nil, ErrShort
		}
		kind := Type(block[0])
		if kind != TypeAck && kind != TypeRemovalAck {
			return nil, fmt.Errorf("%w: item kind %d", ErrAckBatch, block[0])
		}
		seq := binary.BigEndian.Uint64(block[1:9])
		kl := int(binary.BigEndian.Uint16(block[9:11]))
		if kl > MaxKeyLen {
			return nil, fmt.Errorf("%w: ack key %d bytes", ErrTooLarge, kl)
		}
		block = block[11:]
		if len(block) < kl {
			return nil, ErrShort
		}
		items = append(items, AckItem{Kind: kind, Seq: seq, Key: string(block[:kl])})
		block = block[kl:]
	}
	if len(block) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrAckBatch, len(block))
	}
	return items, nil
}

// String renders the message for logging.
func (m *Message) String() string {
	if m.Type == TypeSummaryRefresh {
		return fmt.Sprintf("%s seq=%d keys=%d fold=%016x", m.Type, m.Seq, len(m.Keys), m.Fold)
	}
	if m.Type.Summary() {
		return fmt.Sprintf("%s seq=%d keys=%d", m.Type, m.Seq, len(m.Keys))
	}
	if m.Type.Batch() {
		return fmt.Sprintf("%s seq=%d acks=%d", m.Type, m.Seq, len(m.Acks))
	}
	return fmt.Sprintf("%s seq=%d key=%q (%d bytes)", m.Type, m.Seq, m.Key, len(m.Value))
}
