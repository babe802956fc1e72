package sim

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	livenode "softstate/internal/node"
	"softstate/internal/signal"
)

// Failure campaigns: seeded, replayable schedules of the faults the paper
// only gestures at — node crash/restart with state resynchronization,
// network partitions and healing, relay flaps mid-chain, asymmetric loss
// — executed against the real runtime (the switch-backed node.Chain) in
// virtual time. Every run appends each fault and each periodic audit
// (state agreement + signal.CheckInvariants) to a deterministic log, so a
// campaign is byte-replayable from its configuration alone and two runs
// of the same config can be compared with reflect.DeepEqual.

// FaultKind names one failure primitive.
type FaultKind string

const (
	// FaultSenderRestart crashes the origin and restarts it cold on the
	// same address; the restarted process re-installs the workload — the
	// application-level resynchronization a real boot performs.
	FaultSenderRestart FaultKind = "sender-restart"
	// FaultReceiverRestart cold-restarts the tail receiver: all installed
	// state is lost and only the protocol's own mechanisms may rebuild it.
	FaultReceiverRestart FaultKind = "receiver-restart"
	// FaultRelayRestart flaps interior relay Hop (both sockets die, fresh
	// relay on the same addresses, empty tables).
	FaultRelayRestart FaultKind = "relay-restart"
	// FaultPartition cuts the chain between node Hop and node Hop+1.
	FaultPartition FaultKind = "partition"
	// FaultHeal removes any partition.
	FaultHeal FaultKind = "heal"
	// FaultForwardLoss overrides loss on the directed link node Hop →
	// node Hop+1 (the trigger/refresh direction) with Loss; negative
	// clears. FaultReverseLoss degrades the ack direction instead —
	// together they model asymmetric links.
	FaultForwardLoss FaultKind = "forward-loss"
	FaultReverseLoss FaultKind = "reverse-loss"
)

// Fault is one scheduled failure event.
type Fault struct {
	At   time.Duration // virtual offset from campaign start
	Kind FaultKind
	Hop  int     // relay index, cut position, or link index (kind-dependent)
	Loss float64 // loss override for the loss kinds
}

// CampaignConfig parameterizes one seeded failure campaign.
type CampaignConfig struct {
	Protocol signal.Protocol
	// Nodes is the chain length (default 3: origin, one relay, tail).
	Nodes int
	// Keys is the workload size installed at start (default 8).
	Keys int
	// Loss and Delay impair every link at baseline.
	Loss  float64
	Delay time.Duration
	// Protocol timers (defaults R = 100 ms, T = 3R, Γ = 25 ms).
	RefreshInterval time.Duration
	Timeout         time.Duration
	Retransmit      time.Duration
	// Duration is the virtual campaign length (default 5 s past the last
	// scheduled fault). Invariants and agreement are audited twice per
	// RefreshInterval.
	Duration time.Duration
	// Seed drives link impairments; equal seeds + equal schedules produce
	// byte-identical CampaignResults.
	Seed uint64
	// Schedule is the fault timeline; it is applied in At order.
	Schedule []Fault
}

func (cfg *CampaignConfig) applyDefaults() error {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Nodes < 2 {
		return fmt.Errorf("sim: campaign needs ≥ 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 8
	}
	if cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 100 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * cfg.RefreshInterval
	}
	if cfg.Retransmit <= 0 {
		cfg.Retransmit = 25 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xca3a1
	}
	if cfg.Duration <= 0 {
		var last time.Duration
		for _, f := range cfg.Schedule {
			if f.At > last {
				last = f.At
			}
		}
		cfg.Duration = last + 5*time.Second
	}
	for _, f := range cfg.Schedule {
		switch f.Kind {
		case FaultSenderRestart, FaultReceiverRestart, FaultPartition,
			FaultHeal, FaultForwardLoss, FaultReverseLoss:
		case FaultRelayRestart:
			if f.Hop < 0 || f.Hop >= cfg.Nodes-2 {
				return fmt.Errorf("sim: relay-restart hop %d outside chain of %d nodes", f.Hop, cfg.Nodes)
			}
		default:
			return fmt.Errorf("sim: unknown fault kind %q", f.Kind)
		}
	}
	return nil
}

// CampaignResult is one campaign's full, deterministic record. Every
// field is a pure function of the CampaignConfig; reflect.DeepEqual
// across same-config runs is the replay check.
type CampaignResult struct {
	Protocol string
	Nodes    int
	Keys     int

	// Log records every fault applied and every audit taken, in virtual-
	// time order — the byte-replayable trace.
	Log []string
	// Violations collects every invariant violation any audit found.
	Violations []string

	// Audits counts audit points; PartitionAudits the ones taken while a
	// partition was active, and PartitionInconsistentKeys the (key, audit)
	// pairs in which the tail disagreed with the origin's intent during
	// one. InconsistencyUnderPartition is their ratio — the paper's I
	// metric confined to partition windows.
	Audits                      int
	PartitionAudits             int
	PartitionInconsistentKeys   int
	InconsistencyUnderPartition float64

	// Reconverged reports whether, after the last fault, some audit saw
	// the tail agree with the origin's intent on every key with zero
	// invariant violations; TimeToReconverge is the virtual time from the
	// last fault to that audit (-1 if it never happened).
	Reconverged      bool
	TimeToReconverge time.Duration
	// FinalHolds is the tail's agreeing key count at campaign end.
	FinalHolds int
}

// RunCampaign executes one seeded failure campaign on the real runtime in
// virtual time.
func RunCampaign(cfg CampaignConfig) (CampaignResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return CampaignResult{}, err
	}
	v := clock.NewVirtual()
	scfg := signal.Config{
		Protocol:        cfg.Protocol,
		RefreshInterval: cfg.RefreshInterval,
		Timeout:         cfg.Timeout,
		Retransmit:      cfg.Retransmit,
		Clock:           v,
	}
	link := lossy.Config{
		Loss:  cfg.Loss,
		Delay: cfg.Delay,
		Seed:  cfg.Seed ^ 0x11ce,
		Clock: v,
	}
	chain, err := livenode.NewChain(cfg.Nodes, scfg, link)
	if err != nil {
		return CampaignResult{}, err
	}
	defer chain.Close()

	res := CampaignResult{
		Protocol: scfg.Protocol.String(),
		Nodes:    cfg.Nodes,
		Keys:     cfg.Keys,
	}
	keyName := func(k int) string { return fmt.Sprintf("flow/%03d", k) }
	intent := make([][]byte, cfg.Keys)
	generation := 1
	installAll := func() {
		for k := 0; k < cfg.Keys; k++ {
			val := []byte(fmt.Sprintf("v%d", generation))
			if chain.Install(keyName(k), val) == nil {
				intent[k] = val
			}
		}
		generation++
	}
	installAll()

	// agreeing counts the workload keys on which the tail matches the
	// origin's intent. The tail is read through the chain, so a receiver
	// restart swaps the sampled endpoint as it would in production.
	agreeing := func() int {
		n := 0
		for k := 0; k < cfg.Keys; k++ {
			if got, ok := chain.Tail.Get(keyName(k)); ok && bytes.Equal(got, intent[k]) {
				n++
			}
		}
		return n
	}

	schedule := append([]Fault(nil), cfg.Schedule...)
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].At < schedule[j].At })
	var lastFaultAt time.Duration = -1
	partitioned := false

	apply := func(f Fault) {
		switch f.Kind {
		case FaultSenderRestart:
			if err := chain.RestartOrigin(); err == nil {
				installAll() // the restarted process re-asserts its intent
			}
		case FaultReceiverRestart:
			chain.RestartTail()
		case FaultRelayRestart:
			chain.RestartRelay(f.Hop)
		case FaultPartition:
			chain.PartitionAt(f.Hop)
			partitioned = true
		case FaultHeal:
			chain.Heal()
			partitioned = false
		case FaultForwardLoss:
			chain.SetForwardLoss(f.Hop, f.Loss)
		case FaultReverseLoss:
			chain.SetReverseLoss(f.Hop, f.Loss)
		}
		lastFaultAt = v.Elapsed()
		res.Reconverged = false
		res.TimeToReconverge = -1
		res.Log = append(res.Log, fmt.Sprintf("t=%v fault=%s hop=%d loss=%g", v.Elapsed(), f.Kind, f.Hop, f.Loss))
	}

	audit := func() {
		holds := agreeing()
		bad := chain.CheckInvariants()
		res.Audits++
		if partitioned {
			res.PartitionAudits++
			res.PartitionInconsistentKeys += cfg.Keys - holds
		}
		if len(bad) != 0 {
			res.Violations = append(res.Violations, bad...)
		}
		if !res.Reconverged && holds == cfg.Keys && len(bad) == 0 {
			res.Reconverged = true
			if lastFaultAt >= 0 {
				res.TimeToReconverge = v.Elapsed() - lastFaultAt
			} else {
				res.TimeToReconverge = v.Elapsed()
			}
		}
		res.Log = append(res.Log, fmt.Sprintf("t=%v audit holds=%d/%d violations=%d", v.Elapsed(), holds, cfg.Keys, len(bad)))
	}

	// Timeline: advance the clock to the next fault or audit tick, apply
	// what is due, repeat. Everything is a pure function of the config.
	res.TimeToReconverge = -1
	fi := 0
	auditEvery := cfg.RefreshInterval / 2
	nextAudit := auditEvery
	now := time.Duration(0)
	for now < cfg.Duration {
		next := nextAudit
		if fi < len(schedule) && schedule[fi].At < next {
			next = schedule[fi].At
		}
		if next > cfg.Duration {
			next = cfg.Duration
		}
		if next > now {
			v.Run(next - now)
			now = next
		}
		for fi < len(schedule) && schedule[fi].At <= now {
			apply(schedule[fi])
			fi++
		}
		for nextAudit <= now {
			audit()
			nextAudit += auditEvery
		}
	}
	res.FinalHolds = agreeing()
	if res.PartitionAudits > 0 {
		res.InconsistencyUnderPartition =
			float64(res.PartitionInconsistentKeys) / float64(res.PartitionAudits*cfg.Keys)
	}
	return res, nil
}
