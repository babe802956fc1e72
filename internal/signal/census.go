package signal

import (
	"fmt"
	"net"
	"sort"
	"time"

	"softstate/internal/statetable"
	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// Census sources — the signal layer's side of the convergence auditor.
//
// An audited link pairs an intent source (what a sender believes it has
// installed at a peer) with a held source (what that peer's receiver
// actually holds). Both ends keep the fold of the link — the sum of
// wire.StateHash over every (user key, seq, value) — on the sender's
// Session and the receiver's peer record, so the census's first round
// reads two words and equal folds mean the link converged. Only a link
// whose folds differ is walked, for its per-bucket sums and then the
// listings of the buckets that disagree. In-process sources read the local
// endpoint directly; CensusPeer speaks the wire digest protocol
// (TypeDigest / TypeDigestReply) to audit a remote receiver the auditor
// cannot touch.

// censusBuckets is how many buckets of user keys a census spreads a link's
// keys over to narrow a disagreement down.
const censusBuckets = 16

// censusBucket is user key key's bucket, the same at both ends of a link.
func censusBucket(key string) int { return int(statetable.Hash32(key) % censusBuckets) }

// censusReplyBuffer bounds a pending exchange's reply channel; replies
// beyond it (impossible in practice — detail parts are counted) drop
// rather than stall the read loop.
const censusReplyBuffer = 64

// walkedSource is an in-process census source: fold reads the link's fold,
// and walk visits every key of the link with its wire.StateHash, once per
// round that needs the keys.
func walkedSource(name string, fold func() uint64, walk func(fn func(key string, sum uint64))) telemetry.CensusSource {
	return telemetry.CensusSource{
		Name: name,
		Fold: func() (uint64, error) { return fold(), nil },
		Sums: func() ([]uint64, error) { return censusSums(walk), nil },
		Bucket: func(b int) ([]telemetry.KeyDigest, error) {
			return censusBucketKeys(walk, b), nil
		},
	}
}

// censusSums is the summary round over walk's keys: per bucket, the sum of
// their hashes.
func censusSums(walk func(fn func(key string, sum uint64))) []uint64 {
	sums := make([]uint64, censusBuckets)
	walk(func(key string, sum uint64) { sums[censusBucket(key)] += sum })
	return sums
}

// censusBucketKeys is the detail round over walk's keys: bucket b's keys
// with their hashes, in key order — deterministic output for the
// auditor's diff and for virtual-clock byte-determinism.
func censusBucketKeys(walk func(fn func(key string, sum uint64)), b int) []telemetry.KeyDigest {
	var out []telemetry.KeyDigest
	walk(func(key string, sum uint64) {
		if censusBucket(key) == b {
			out = append(out, telemetry.KeyDigest{Key: key, Sum: sum})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// digests calls fn with the user key and wire.StateHash of every live key
// of s, or of every session for s nil, one shard lock at a time.
func (ss *Sessions) digests(s *Session, fn func(key string, sum uint64)) {
	ss.tbl.Range(func(ck string, e *senderEntry) bool {
		if !e.removing && (s == nil || sessionID(ck) == s.id) {
			key := userKey(ck)
			fn(key, wire.StateHash(key, e.seq, e.value))
		}
		return true
	})
}

// fold is the sum of every session's fold: the whole table's.
func (ss *Sessions) fold() (sum uint64) {
	ss.byIDMu.RLock()
	defer ss.byIDMu.RUnlock()
	for _, s := range ss.byID {
		sum += s.fold.Load()
	}
	return sum
}

// CensusSource exposes the whole sender table as an auditor intent source:
// its fold is the sum of the sessions' folds, its keys a table walk. Keys
// are user keys (session prefixes stripped), so use this on single-peer
// cores — a Sender or a chain node — where the key space is one peer's; a
// multi-peer node audits per link with Session.CensusSource instead.
func (ss *Sessions) CensusSource(name string) telemetry.CensusSource {
	return walkedSource(name, ss.fold, func(fn func(string, uint64)) { ss.digests(nil, fn) })
}

// CensusSource exposes one session as an auditor intent source: exactly
// the keys this peer should hold. Its fold is the session's; its keys are
// a walk of the shared table filtered to this session — O(total keys),
// fine for audit cadence, not for hot paths.
func (s *Session) CensusSource(name string) telemetry.CensusSource {
	return walkedSource(name, s.fold.Load, func(fn func(string, uint64)) { s.ss.digests(s, fn) })
}

// CensusPeer builds an auditor held source that audits a remote receiver
// over the wire: each read sends a TypeDigest request to peer and waits
// (wall-clock, up to timeout) for the TypeDigestReply stream the read
// loop routes back via deliverCensusReply. A peer that does not answer
// times the read out, and the auditor reports the link failed rather
// than converged. The timeout is real time even under a
// virtual clock — wire audits are for live deployments; virtual-time
// experiments audit in process with the direct sources above.
func (ss *Sessions) CensusPeer(name string, peer net.Addr, timeout time.Duration) telemetry.CensusSource {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return telemetry.CensusSource{
		Name: name,
		Fold: func() (uint64, error) {
			parts, err := ss.censusExchange(peer, wire.DigestRequest{Kind: wire.DigestFold}, timeout)
			if err != nil {
				return 0, err
			}
			return parts[0].Fold, nil
		},
		Sums: func() ([]uint64, error) {
			parts, err := ss.censusExchange(peer, wire.DigestRequest{Kind: wire.DigestSummary}, timeout)
			if err != nil {
				return nil, err
			}
			return parts[0].Sums, nil
		},
		Bucket: func(b int) ([]telemetry.KeyDigest, error) {
			if b < 0 || b > int(^uint16(0)) {
				return nil, fmt.Errorf("signal: census bucket %d out of wire range", b)
			}
			parts, err := ss.censusExchange(peer, wire.DigestRequest{Kind: wire.DigestDetail, Bucket: uint16(b)}, timeout)
			if err != nil {
				return nil, err
			}
			var out []telemetry.KeyDigest
			for _, p := range parts {
				for _, k := range p.Keys {
					out = append(out, telemetry.KeyDigest{Key: k.Key, Sum: k.Sum})
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
			return out, nil
		},
	}
}

// censusExchange runs one request/reply round against peer: it parks a
// reply channel under a fresh nonce, sends the request, and collects
// every part of the answer (summaries are one datagram; detail replies
// declare their part count). Lost datagrams are not retransmitted — a
// census is periodic, so the next round retries naturally.
func (ss *Sessions) censusExchange(peer net.Addr, req wire.DigestRequest, timeout time.Duration) ([]*wire.DigestReply, error) {
	if ss.closed.Load() {
		return nil, ErrClosed
	}
	nonce := ss.censusNonce.Add(1)
	ch := make(chan *wire.DigestReply, censusReplyBuffer)
	ss.censusMu.Lock()
	if ss.censusCh == nil {
		ss.censusCh = make(map[uint64]chan *wire.DigestReply)
	}
	ss.censusCh[nonce] = ch
	ss.censusMu.Unlock()
	defer func() {
		ss.censusMu.Lock()
		delete(ss.censusCh, nonce)
		ss.censusMu.Unlock()
	}()
	ss.send(wire.Message{Type: wire.TypeDigest, Seq: nonce, Value: req.Encode()}, peer)
	deadline := time.After(timeout)
	var parts []*wire.DigestReply
	seen := make(map[uint16]bool)
	want := 1
	for len(parts) < want {
		select {
		case r := <-ch:
			if r.Kind != req.Kind {
				continue
			}
			if req.Kind == wire.DigestDetail {
				if r.Bucket != req.Bucket || seen[r.Part] {
					continue
				}
				seen[r.Part] = true
				if n := int(r.Parts); n > want {
					want = n
				}
			}
			parts = append(parts, r)
		case <-deadline:
			return nil, fmt.Errorf("signal: census timeout after %v awaiting %v (got %d/%d parts)",
				timeout, peer, len(parts), want)
		}
	}
	return parts, nil
}

// deliverCensusReply routes an inbound digest reply to the exchange
// waiting on its nonce. Unsolicited or late replies are dropped; the
// send never blocks the read loop.
func (ss *Sessions) deliverCensusReply(m wire.Message) {
	r, err := wire.ParseDigestReply(m.Value)
	if err != nil {
		ss.ctrs.decodeErrors.Add(1)
		return
	}
	ss.censusMu.Lock()
	ch := ss.censusCh[m.Seq]
	ss.censusMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- r:
	default:
	}
}

// digests calls fn with the user key and wire.StateHash of every entry p
// holds, or of every entry for p nil, one shard lock at a time.
func (r *Receiver) digests(p *peer, fn func(key string, sum uint64)) {
	r.tbl.Range(func(ck string, e *receiverEntry) bool {
		if q := p; q == nil || e.peer == q.id {
			if q == nil {
				q = r.peers.resolve(e.peer)
			}
			key := q.userKey(ck)
			fn(key, wire.StateHash(key, e.lastSeq, e.value))
		}
		return true
	})
}

// fold is the sum of every peer record's fold: the whole table's.
func (r *Receiver) fold() (sum uint64) {
	r.peers.mu.RLock()
	defer r.peers.mu.RUnlock()
	for _, p := range r.peers.byID {
		sum += p.fold
	}
	return sum
}

// CensusSource exposes the receiver's whole table as an auditor held
// source: its fold is the sum of the peer records' folds, its keys a table
// walk. Keys are user keys; with several upstream senders holding the same
// key their contributions add up, so pair this with a matching aggregate
// intent source (chains have exactly one upstream, where it is exact).
func (r *Receiver) CensusSource(name string) telemetry.CensusSource {
	return walkedSource(name, r.fold, func(fn func(string, uint64)) { r.digests(nil, fn) })
}

// --- per-peer health ---

// RTT returns the gain-1/8 EWMA of this peer's trigger→ack round trip,
// 0 until the first measured acknowledgement (RTT sampling needs
// Config.Metrics, which enables the send stamps).
func (s *Session) RTT() time.Duration { return time.Duration(s.rttNs.Load()) }

// LossEstimate estimates the loss rate toward this peer as
// retransmits / (triggers + retransmits) — 0 until anything was sent.
// Removal retransmits count too: they signal the same path loss.
func (s *Session) LossEstimate() float64 {
	t, r := s.trigs.Load(), s.retxs.Load()
	if t+r == 0 {
		return 0
	}
	return float64(r) / float64(t+r)
}
