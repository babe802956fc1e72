package wire

import (
	"encoding/binary"
	"fmt"
)

// Digest exchange payloads — the convergence auditor's census protocol.
//
// A census first asks for the responder's fold of the requester's keys
// (DigestFold): the sum of StateHash over every (key, seq, value) it holds
// for the requester, 8 bytes the responder keeps up to date as it installs
// and drops state, so reading it is O(1). Only a link whose folds disagree
// goes on: the requester asks for the per-bucket sums (DigestSummary), one
// 8-byte sum of the same hashes per bucket of user keys, and resolves the
// buckets whose sums disagree with its own with a last round
// (DigestDetail): the responder lists every key in the bucket with its
// individual digest, and the requester diffs the two key sets down to the
// exact divergent keys. The responder computes the last two in a walk over
// the link's entries. All payloads ride the generic key/value frame
// encoding (empty key, payload in the value region) under TypeDigest /
// TypeDigestReply; Message.Seq carries a requester-chosen nonce that
// matches replies to requests.
//
// DigestRequest value layout:
//
//	1     kind (0 summary, 1 detail, 2 fold)
//	2     bucket index (detail only)
//
// DigestReply value layout:
//
//	1     kind
//	fold:    { 8: fold }
//	summary: { 2: bucket count N ≤ MaxDigestBuckets, N × 8: sums }
//	detail:  { 2: bucket, 2: part, 2: parts, 2: key count n,
//	           n × { 8: sum, 2: key length, key bytes } }
//
// A detail reply whose key list exceeds the MaxValueLen budget is split
// into parts (DigestDetailFits bounds each chunk); part/parts let the
// requester reassemble without ordering assumptions.

// DigestKind discriminates the census rounds.
type DigestKind uint8

const (
	// DigestSummary is the per-bucket sums round.
	DigestSummary DigestKind = 0
	// DigestDetail is the per-key resolution round for one bucket.
	DigestDetail DigestKind = 1
	// DigestFold is the first round: the fold of the whole link.
	DigestFold DigestKind = 2
)

// MaxDigestBuckets bounds a digest's bucket count on the wire. The sums
// block must also fit the MaxValueLen budget (512 × 8 + 3 bytes does).
const MaxDigestBuckets = 512

// DigestRequest is a census request payload.
type DigestRequest struct {
	Kind DigestKind
	// Bucket is the bucket being resolved (DigestDetail only).
	Bucket uint16
}

// Encode renders the request payload for a TypeDigest message value.
func (r DigestRequest) Encode() []byte {
	if r.Kind == DigestDetail {
		return []byte{byte(DigestDetail), byte(r.Bucket >> 8), byte(r.Bucket)}
	}
	return []byte{byte(r.Kind)}
}

// ParseDigestRequest decodes a TypeDigest message value.
func ParseDigestRequest(value []byte) (DigestRequest, error) {
	if len(value) < 1 {
		return DigestRequest{}, fmt.Errorf("%w: empty request", ErrDigest)
	}
	switch k := DigestKind(value[0]); k {
	case DigestSummary, DigestFold:
		if len(value) != 1 {
			return DigestRequest{}, fmt.Errorf("%w: %d trailing bytes", ErrDigest, len(value)-1)
		}
		return DigestRequest{Kind: k}, nil
	case DigestDetail:
		if len(value) != 3 {
			return DigestRequest{}, fmt.Errorf("%w: detail request %d bytes", ErrDigest, len(value))
		}
		return DigestRequest{Kind: DigestDetail, Bucket: binary.BigEndian.Uint16(value[1:3])}, nil
	default:
		return DigestRequest{}, fmt.Errorf("%w: kind %d", ErrDigest, value[0])
	}
}

// DigestKeySum is one key's individual digest contribution inside a
// detail reply.
type DigestKeySum struct {
	Key string
	Sum uint64
}

// DigestReply is a census reply payload: Fold for the fold round, Sums for
// the summary round, Bucket/Part/Parts/Keys for the detail round.
type DigestReply struct {
	Kind DigestKind
	// Fold is the responder's fold of the link (DigestFold).
	Fold uint64
	// Sums are the per-bucket digest sums (DigestSummary).
	Sums []uint64
	// Bucket is the bucket being listed; Part/Parts chunk oversized
	// listings (DigestDetail).
	Bucket, Part, Parts uint16
	// Keys are the bucket's per-key digests (DigestDetail).
	Keys []DigestKeySum
}

// digestDetailLen is the encoded size of a detail reply's key list plus
// its fixed fields (excluding the kind byte).
func digestDetailLen(keys []DigestKeySum) int {
	n := 2 + 2 + 2 + 2
	for i := range keys {
		n += 8 + 2 + len(keys[i].Key)
	}
	return n
}

// DigestDetailFits reports how many of keys fit one detail reply: the
// largest prefix within the MaxValueLen byte budget. Responders use it
// to chunk large buckets into parts.
func DigestDetailFits(keys []DigestKeySum) int {
	n, bytes := 0, 1+2+2+2+2
	for i := range keys {
		if bytes+8+2+len(keys[i].Key) > MaxValueLen {
			break
		}
		bytes += 8 + 2 + len(keys[i].Key)
		n++
	}
	return n
}

// Encode renders the reply payload for a TypeDigestReply message value.
func (r *DigestReply) Encode() ([]byte, error) {
	switch r.Kind {
	case DigestFold:
		return binary.BigEndian.AppendUint64([]byte{byte(DigestFold)}, r.Fold), nil
	case DigestSummary:
		if len(r.Sums) > MaxDigestBuckets {
			return nil, fmt.Errorf("%w: %d buckets", ErrTooLarge, len(r.Sums))
		}
		out := make([]byte, 0, 1+2+8*len(r.Sums))
		out = append(out, byte(DigestSummary))
		out = binary.BigEndian.AppendUint16(out, uint16(len(r.Sums)))
		for _, s := range r.Sums {
			out = binary.BigEndian.AppendUint64(out, s)
		}
		return out, nil
	case DigestDetail:
		if r.Parts == 0 || r.Part >= r.Parts {
			return nil, fmt.Errorf("%w: part %d of %d", ErrDigest, r.Part, r.Parts)
		}
		if 1+digestDetailLen(r.Keys) > MaxValueLen {
			return nil, fmt.Errorf("%w: detail reply %d bytes", ErrTooLarge, 1+digestDetailLen(r.Keys))
		}
		out := make([]byte, 0, 1+digestDetailLen(r.Keys))
		out = append(out, byte(DigestDetail))
		out = binary.BigEndian.AppendUint16(out, r.Bucket)
		out = binary.BigEndian.AppendUint16(out, r.Part)
		out = binary.BigEndian.AppendUint16(out, r.Parts)
		out = binary.BigEndian.AppendUint16(out, uint16(len(r.Keys)))
		for i := range r.Keys {
			if len(r.Keys[i].Key) > MaxKeyLen {
				return nil, fmt.Errorf("%w: digest key %d bytes", ErrTooLarge, len(r.Keys[i].Key))
			}
			out = binary.BigEndian.AppendUint64(out, r.Keys[i].Sum)
			out = binary.BigEndian.AppendUint16(out, uint16(len(r.Keys[i].Key)))
			out = append(out, r.Keys[i].Key...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrDigest, r.Kind)
	}
}

// ParseDigestReply decodes a TypeDigestReply message value. Keys are
// copied, so the result does not alias value.
func ParseDigestReply(value []byte) (*DigestReply, error) {
	if len(value) < 1 {
		return nil, fmt.Errorf("%w: empty reply", ErrDigest)
	}
	switch DigestKind(value[0]) {
	case DigestFold:
		if len(value) != 1+8 {
			return nil, fmt.Errorf("%w: fold reply %d bytes", ErrDigest, len(value))
		}
		return &DigestReply{Kind: DigestFold, Fold: binary.BigEndian.Uint64(value[1:])}, nil
	case DigestSummary:
		rest := value[1:]
		if len(rest) < 2 {
			return nil, ErrShort
		}
		n := int(binary.BigEndian.Uint16(rest))
		if n > MaxDigestBuckets {
			return nil, fmt.Errorf("%w: %d buckets", ErrTooLarge, n)
		}
		rest = rest[2:]
		if len(rest) != 8*n {
			return nil, fmt.Errorf("%w: sums block %d bytes, want %d", ErrDigest, len(rest), 8*n)
		}
		r := &DigestReply{Kind: DigestSummary, Sums: make([]uint64, n)}
		for i := 0; i < n; i++ {
			r.Sums[i] = binary.BigEndian.Uint64(rest[8*i:])
		}
		return r, nil
	case DigestDetail:
		rest := value[1:]
		if len(rest) < 8 {
			return nil, ErrShort
		}
		r := &DigestReply{
			Kind:   DigestDetail,
			Bucket: binary.BigEndian.Uint16(rest[0:2]),
			Part:   binary.BigEndian.Uint16(rest[2:4]),
			Parts:  binary.BigEndian.Uint16(rest[4:6]),
		}
		n := int(binary.BigEndian.Uint16(rest[6:8]))
		rest = rest[8:]
		if r.Parts == 0 || r.Part >= r.Parts {
			return nil, fmt.Errorf("%w: part %d of %d", ErrDigest, r.Part, r.Parts)
		}
		r.Keys = make([]DigestKeySum, 0, n)
		for i := 0; i < n; i++ {
			if len(rest) < 8+2 {
				return nil, ErrShort
			}
			sum := binary.BigEndian.Uint64(rest[0:8])
			kl := int(binary.BigEndian.Uint16(rest[8:10]))
			if kl > MaxKeyLen {
				return nil, fmt.Errorf("%w: digest key %d bytes", ErrTooLarge, kl)
			}
			rest = rest[10:]
			if len(rest) < kl {
				return nil, ErrShort
			}
			r.Keys = append(r.Keys, DigestKeySum{Key: string(rest[:kl]), Sum: sum})
			rest = rest[kl:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrDigest, len(rest))
		}
		return r, nil
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrDigest, value[0])
	}
}
