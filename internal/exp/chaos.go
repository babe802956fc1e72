package exp

import (
	"fmt"
	"time"

	"softstate/internal/chaos"
	"softstate/internal/report"
	"softstate/internal/sim"
	"softstate/internal/variant"
)

// ext-chaos: the adversarial-robustness artifact. A single seed expands —
// through the chaos campaign scheduler — into a fault timeline (restarts,
// a partition-and-heal window, loss bursts) that every variant then rides
// on the real multi-hop runtime in virtual time. The artifact records,
// per variant, how long reconvergence took after the last fault and how
// inconsistent the tail was while partitioned; a second frame runs the
// receiver cold-restart campaign, where the refresh-bearing variants
// rebuild the receiver and hard state — by design — cannot.

// chaosSeedFor finds the first seed at or after base whose generated
// schedule contains a partition window, so the inconsistency-under-
// partition column always measures something. Deterministic in base.
func chaosSeedFor(base uint64) uint64 {
	seed := base
	for {
		cfg := chaos.CampaignOpts{Protocol: chaos.Protocols[0], Seed: seed, Episodes: 4}.Config()
		for _, f := range cfg.Schedule {
			if f.Kind == sim.FaultPartition {
				return seed
			}
		}
		seed++
	}
}

func chaosCampaignOpts(o Options) chaos.CampaignOpts {
	return chaos.CampaignOpts{
		Seed:     chaosSeedFor(o.Seed ^ 0xc4a05),
		Episodes: 4,
		Nodes:    3,
		Loss:     0.05,
	}
}

func init() {
	register(Experiment{
		ID:        "ext-chaos",
		Title:     "Extension: seeded failure campaigns — reconvergence and partition inconsistency",
		Simulated: true,
		Description: "Every variant rides the same seed-generated fault timeline (crash/restart, " +
			"partition+heal, loss bursts) on the real multi-hop runtime in virtual time: " +
			"time-to-reconverge after the last fault, inconsistency while partitioned, and " +
			"the invariant-violation count (always zero). The cold-restart frame replays the " +
			"paper's robustness contrast as a campaign: soft state rebuilds a cold receiver " +
			"from refreshes, hard state has no mechanism to and never reconverges.",
		Artifact: chaosArtifact,
	})
}

// chaosArtifact is the two-frame form: the shared seeded campaign beside
// the cold-restart contrast, with the reconvergence claims embedded as
// ordering checks.
func chaosArtifact(o Options) (*report.Artifact, error) {
	opts := chaosCampaignOpts(o)

	campaign := report.New("Seeded fault timeline (all variants, same seed)",
		"protocol", "ttr_ms", "partition_I", "partition_audits", "violations", "reconverged")
	for _, prof := range variant.All() {
		opts.Protocol = prof.Proto
		res, err := chaos.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("%s campaign: %w", prof, err)
		}
		if !res.Reconverged {
			return nil, fmt.Errorf("%s never reconverged under seed %d:\n%v",
				prof, opts.Seed, res.Log)
		}
		reconv := 0
		if res.Reconverged {
			reconv = 1
		}
		campaign.AddRow(prof.Name,
			fmt.Sprintf("%.1f", float64(res.TimeToReconverge)/float64(time.Millisecond)),
			fmt.Sprintf("%.4f", res.InconsistencyUnderPartition),
			fmt.Sprintf("%d", res.PartitionAudits),
			fmt.Sprintf("%d", len(res.Violations)),
			fmt.Sprintf("%d", reconv))
	}

	// The robustness contrast: one receiver cold restart, nothing else.
	// The schedule is fixed (not generated) so the frame isolates exactly
	// one mechanism difference.
	cold := report.New("Receiver cold restart (soft state rebuilds, hard state cannot)",
		"protocol", "reconverged", "final_holds", "violations")
	for _, prof := range variant.All() {
		res, err := sim.RunCampaign(sim.CampaignConfig{
			Protocol: prof.Proto,
			Seed:     opts.Seed,
			Schedule: []sim.Fault{{At: time.Second, Kind: sim.FaultReceiverRestart}},
			Duration: 4 * time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("%s cold restart: %w", prof, err)
		}
		reconv := 0
		if res.Reconverged {
			reconv = 1
		}
		cold.AddRow(prof.Name,
			fmt.Sprintf("%d", reconv),
			fmt.Sprintf("%d", res.FinalHolds),
			fmt.Sprintf("%d", len(res.Violations)))
	}

	return &report.Artifact{
		Frames: []report.Frame{
			report.NewFrame("campaign", campaign),
			report.NewFrame("cold-restart", cold),
		},
		Checks: &report.Checks{
			// Campaign runs are fully virtual-time deterministic, but leave
			// live-frame headroom in case timer coalescing shifts an audit
			// across platforms.
			RelTol: map[string]float64{
				"campaign/ttr_ms":      0.25,
				"campaign/partition_I": 0.25,
			},
			AbsTol: map[string]float64{
				"campaign/partition_I": 0.02,
				"campaign/ttr_ms":      50,
			},
			Orderings: []report.OrderRule{
				// Hard state never reconverges a cold receiver; every
				// refresh-bearing variant does.
				{Frame: "cold-restart", KeyColumn: "protocol", ValueColumn: "reconverged", LowestKey: "HS"},
				// While partitioned, the soft-state tail expires state the
				// cut blocks refreshes for; hard state holds what it has, so
				// its partition inconsistency is the minimum.
				{Frame: "campaign", KeyColumn: "protocol", ValueColumn: "partition_I", LowestKey: "HS"},
			},
		},
	}, nil
}
