package signal

import (
	"errors"
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
// actually holds). Both fold the same (key, value, seq) tuples with
// statetable.DigestKV, so equal sums mean the link converged. In-process
// sources read the local table directly; CensusPeer speaks the wire
// digest protocol (TypeDigest / TypeDigestReply) to audit a remote
// receiver the auditor cannot touch.

// ErrNoCensus reports a census read against an endpoint configured
// without Config.Census: no digests are maintained, so there is nothing
// to compare.
var ErrNoCensus = errors.New("signal: census disabled (Config.Census false)")

// censusReplyBuffer bounds a pending exchange's reply channel; replies
// beyond it (impossible in practice — detail parts are counted) drop
// rather than stall the read loop.
const censusReplyBuffer = 64

// DigestSums returns the endpoint's per-bucket digest sums, nil when
// census is off. O(shards × buckets), independent of key count.
func (ss *Sessions) DigestSums() []uint64 { return ss.tbl.DigestSums() }

// CensusSource exposes the whole sender table as an auditor intent
// source: the summary round reads the incremental sums in O(shards ×
// buckets), the detail round walks the table once. Keys are user keys
// (session prefixes stripped), so use this on single-peer cores — a
// Sender or a chain node — where the key space is one peer's; a
// multi-peer node audits per link with Session.CensusSource instead.
func (ss *Sessions) CensusSource(name string) telemetry.CensusSource {
	return telemetry.CensusSource{
		Name: name,
		Sums: func() ([]uint64, error) {
			sums := ss.tbl.DigestSums()
			if sums == nil {
				return nil, ErrNoCensus
			}
			return sums, nil
		},
		Bucket: func(b int) ([]telemetry.KeyDigest, error) {
			if ss.tbl.NumDigestBuckets() == 0 {
				return nil, ErrNoCensus
			}
			var out []telemetry.KeyDigest
			ss.tbl.RangeDigest(func(ck string, _ *senderEntry, bucket uint32, sum uint64) bool {
				if int(bucket) == b {
					out = append(out, telemetry.KeyDigest{Key: userKey(ck), Sum: sum})
				}
				return true
			})
			sortKeyDigests(out)
			return out, nil
		},
	}
}

// CensusSource exposes one session's slice of the shared table as an
// auditor intent source: exactly the keys this peer should hold. Both
// rounds walk the table filtered to this session — O(total keys), fine
// for audit cadence, not for hot paths.
func (s *Session) CensusSource(name string) telemetry.CensusSource {
	ss := s.ss
	return telemetry.CensusSource{
		Name: name,
		Sums: func() ([]uint64, error) {
			n := ss.tbl.NumDigestBuckets()
			if n == 0 {
				return nil, ErrNoCensus
			}
			sums := make([]uint64, n)
			ss.tbl.RangeDigest(func(ck string, _ *senderEntry, bucket uint32, sum uint64) bool {
				if sessionID(ck) == s.id {
					sums[bucket] ^= sum
				}
				return true
			})
			return sums, nil
		},
		Bucket: func(b int) ([]telemetry.KeyDigest, error) {
			if ss.tbl.NumDigestBuckets() == 0 {
				return nil, ErrNoCensus
			}
			var out []telemetry.KeyDigest
			ss.tbl.RangeDigest(func(ck string, _ *senderEntry, bucket uint32, sum uint64) bool {
				if sessionID(ck) == s.id && int(bucket) == b {
					out = append(out, telemetry.KeyDigest{Key: userKey(ck), Sum: sum})
				}
				return true
			})
			sortKeyDigests(out)
			return out, nil
		},
	}
}

// CensusPeer builds an auditor held source that audits a remote receiver
// over the wire: each read sends a TypeDigest request to peer and waits
// (wall-clock, up to timeout) for the TypeDigestReply stream the read
// loop routes back via deliverCensusReply. A peer with census off never
// answers, so the read times out and the auditor reports the link
// failed rather than converged. The timeout is real time even under a
// virtual clock — wire audits are for live deployments; virtual-time
// experiments audit in process with the direct sources above.
func (ss *Sessions) CensusPeer(name string, peer net.Addr, timeout time.Duration) telemetry.CensusSource {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return telemetry.CensusSource{
		Name: name,
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
			sortKeyDigests(out)
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

// CensusSource exposes the receiver's whole table as an auditor held
// source: the summary round reads the incremental sums in O(shards ×
// buckets), the detail round walks the table once. Keys are user keys;
// with several upstream senders holding the same key their
// contributions XOR together, so pair this with a matching aggregate
// intent source (chains have exactly one upstream, where it is exact).
func (r *Receiver) CensusSource(name string) telemetry.CensusSource {
	return telemetry.CensusSource{
		Name: name,
		Sums: func() ([]uint64, error) {
			sums := r.tbl.DigestSums()
			if sums == nil {
				return nil, ErrNoCensus
			}
			return sums, nil
		},
		Bucket: func(b int) ([]telemetry.KeyDigest, error) {
			if r.tbl.NumDigestBuckets() == 0 {
				return nil, ErrNoCensus
			}
			var out []telemetry.KeyDigest
			r.tbl.RangeDigest(func(ck string, e *receiverEntry, bucket uint32, sum uint64) bool {
				if int(bucket) == b {
					out = append(out, telemetry.KeyDigest{Key: r.peers.resolve(e.peer).userKey(ck), Sum: sum})
				}
				return true
			})
			sortKeyDigests(out)
			return out, nil
		},
	}
}

// censusDigest turns on stcfg's digest when cfg.Census is set: fold names
// what an entry contributes — (user key, value, seq), or ok false to leave
// it out. Both ends bucket on the user key, so that the census detail
// round lines their listings up.
func censusDigest[V any](cfg Config, stcfg *statetable.Config[V], fold func(ck string, e *V) (key string, value []byte, seq uint64, ok bool)) {
	if !cfg.Census {
		return
	}
	buckets := cfg.CensusBuckets
	if buckets <= 0 {
		buckets = statetable.DefaultDigestBuckets
	}
	stcfg.DigestBuckets = buckets
	stcfg.DigestFunc = func(ck string, e *V) (uint32, uint64) {
		k, v, seq, ok := fold(ck, e)
		if !ok {
			return 0, 0
		}
		return statetable.DigestBucketOf(k, buckets), statetable.DigestKV(k, v, seq)
	}
}

// sortKeyDigests orders a detail listing by key — deterministic output
// for the auditor's diff and for virtual-clock byte-determinism.
func sortKeyDigests(out []telemetry.KeyDigest) {
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
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
