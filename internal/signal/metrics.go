package signal

import (
	"strconv"

	"softstate/internal/statetable"
	"softstate/internal/telemetry"
)

// This file is the sender/receiver instrument inventory: everything an
// endpoint registers when Config.Metrics is set. Counters are the same
// value-embedded atomics the endpoint always maintained (registration
// only names them); gauges are scrape-time functions over state the
// endpoint already tracks; histograms are the only additions, and their
// Observe calls are two atomic increments guarded by the endpoint's
// measure flag.

// registerTableGauges exposes a state table's occupancy and, per shard,
// its wheel depth and deferred re-bucket count.
func registerTableGauges[V any](r *telemetry.Registry, labels telemetry.Labels, tbl *statetable.Table[V]) {
	r.GaugeFunc(telemetry.Opts{
		Name:   "softstate_table_keys",
		Help:   "Entries in the endpoint's sharded state table.",
		Labels: labels,
	}, func() float64 { return float64(tbl.Len()) })
	for i := 0; i < tbl.NumShards(); i++ {
		shard := i
		sl := withLabel(labels, "shard", strconv.Itoa(shard))
		r.GaugeFunc(telemetry.Opts{
			Name:   "softstate_wheel_depth",
			Help:   "Armed timers on one shard's hierarchical timing wheel.",
			Labels: sl,
		}, func() float64 { return float64(tbl.WheelDepth(shard)) })
		r.GaugeFunc(telemetry.Opts{
			Name:   "softstate_wheel_rebuckets_total",
			Help:   "Renewed timers one shard's wheel reached before their deadline and re-bucketed instead of firing.",
			Labels: sl,
		}, func() float64 { return float64(tbl.WheelRebuckets(shard)) })
	}
}

// registerSender wires the sender-side instruments onto cfg.Metrics and
// hands back the latency histograms the session paths feed.
func (ss *Sessions) registerMetrics() {
	reg := ss.cfg.Metrics
	if reg == nil {
		return
	}
	labels := metricsLabelsFor(ss.cfg, "sender")
	ss.ctrs.register(reg, labels)
	ss.histInstallAck = reg.NewHistogram(telemetry.Opts{
		Name:   "softstate_install_ack_seconds",
		Help:   "Latency from a trigger transmission to the ack completing it.",
		Labels: labels,
	})
	ss.histRemoval = reg.NewHistogram(telemetry.Opts{
		Name:   "softstate_removal_latency_seconds",
		Help:   "Latency from a reliable removal transmission to its removal-ack.",
		Labels: labels,
	})
	reg.GaugeFunc(telemetry.Opts{
		Name:   "softstate_live_keys",
		Help:   "Live (non-removing) keys across all peer sessions.",
		Labels: labels,
	}, func() float64 { return float64(ss.live.Load()) })
	reg.GaugeFunc(telemetry.Opts{
		Name:   "softstate_peer_sessions",
		Help:   "Peer sessions currently in the sender's peer table.",
		Labels: labels,
	}, func() float64 { return float64(ss.NumPeers()) })
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_peer_evictions_total",
		Help:   "Idle peer sessions evicted from the peer table.",
		Labels: labels,
	}, &ss.evictions)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_frames_sent_total",
		Help:   "Summary datagrams queued by sweeps from the sessions' encoded frames.",
		Labels: labels,
	}, &ss.ctrs.summaryFramesSent)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_frames_encoded_total",
		Help:   "Summary frames encoded because a session's key set changed; flat while sweeps repeat their frames.",
		Labels: labels,
	}, &ss.ctrs.summaryFramesEncoded)
	reg.GaugeFunc(telemetry.Opts{
		Name:   "softstate_peer_rtt_seconds",
		Help:   "Mean of the per-peer trigger→ack round-trip EWMAs (peers with at least one measured ack).",
		Labels: labels,
	}, func() float64 {
		var sum float64
		n := 0
		for _, s := range ss.Peers() {
			if v := s.rttNs.Load(); v > 0 {
				sum += float64(v) / 1e9
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	})
	reg.GaugeFunc(telemetry.Opts{
		Name:   "softstate_peer_loss_ratio",
		Help:   "Estimated loss rate across all peers: retransmits / (triggers + retransmits).",
		Labels: labels,
	}, func() float64 {
		var trigs, retxs int64
		for _, s := range ss.Peers() {
			trigs += s.trigs.Load()
			retxs += s.retxs.Load()
		}
		if trigs+retxs == 0 {
			return 0
		}
		return float64(retxs) / float64(trigs+retxs)
	})
	registerTableGauges(reg, labels, ss.tbl)
}

// registerMetrics wires the receiver-side instruments onto cfg.Metrics.
func (r *Receiver) registerMetrics() {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	labels := metricsLabelsFor(r.cfg, "receiver")
	r.ctrs.register(reg, labels)
	r.histJitter = reg.NewHistogram(telemetry.Opts{
		Name:   "softstate_refresh_jitter_seconds",
		Help:   "Observed interval between successive renewals of one key (refresh jitter; nominally RefreshInterval).",
		Labels: labels,
	})
	r.histHop = reg.NewHistogram(telemetry.Opts{
		Name:   "softstate_hop_propagation_seconds",
		Help:   "One-hop propagation latency of traced frames (sender hop stamp to receipt).",
		Labels: labels,
	})
	r.histE2E = reg.NewHistogram(telemetry.Opts{
		Name:   "softstate_e2e_install_seconds",
		Help:   "End-to-end install latency of traced triggers (origin stamp to receipt, across all hops).",
		Labels: labels,
	})
	if r.prof.HardState {
		r.histOrphan = reg.NewHistogram(telemetry.Opts{
			Name:   "softstate_orphan_detection_seconds",
			Help:   "Time from a sender's last answer to the probe round that orphaned all its state.",
			Labels: labels,
		})
		reg.RegisterCounter(telemetry.Opts{
			Name:   "softstate_probe_audits_total",
			Help:   "(Sender, probe round) pairs probed key by key because the sender's key count or fold disagreed.",
			Labels: labels,
		}, &r.ctrs.probeAudits)
	}
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_renewals_total",
		Help:   "Keys found while absorbing summary refreshes.",
		Labels: labels,
	}, &r.ctrs.summaryRenewals)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_index_lookups_total",
		Help:   "Summary-refresh keys looked up through the state table's index: every key of a datagram from a known peer that no lease answered.",
		Labels: labels,
	}, &r.ctrs.summaryIndexLookups)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_leased_total",
		Help:   "Summary-refresh keys renewed by extending a datagram lease, with no entry touched.",
		Labels: labels,
	}, &r.ctrs.summaryLeased)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_lease_lookups_total",
		Help:   "Summary datagrams whose lease was looked up by key-list fold because they did not arrive in sweep order.",
		Labels: labels,
	}, &r.ctrs.summaryLeaseLookups)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_summary_fold_mismatches_total",
		Help:   "Summary datagrams whose keys were all held but whose fold disagreed: they renewed nothing and were NACKed whole.",
		Labels: labels,
	}, &r.ctrs.summaryFoldMismatches)
	reg.GaugeFunc(telemetry.Opts{
		Name:   "softstate_receiver_peers",
		Help:   "Senders holding state (or owed a coalesced ack) at the receiver.",
		Labels: labels,
	}, func() float64 { return float64(r.NumPeers()) })
	registerTableGauges(reg, labels, r.tbl)
}
