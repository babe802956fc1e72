package chaos

import (
	"fmt"
	"time"

	"softstate/internal/rand"
	"softstate/internal/signal"
	"softstate/internal/sim"
)

// Seeded failure campaigns: one integer expands deterministically into a
// full fault timeline — crash/restart episodes, partition-and-heal
// windows, relay flaps, asymmetric loss bursts — which sim.RunCampaign
// then executes on the real multi-hop runtime in virtual time. The seed
// is the whole reproduction recipe: same seed, byte-identical schedule,
// byte-identical CampaignResult.

// CampaignOpts parameterizes one seeded campaign.
type CampaignOpts struct {
	// Protocol selects the variant under test.
	Protocol signal.Protocol
	// Seed expands into the fault schedule and drives link impairments.
	Seed uint64
	// Episodes is the number of generated failure episodes (default 4).
	Episodes int
	// Nodes is the chain length (default 3).
	Nodes int
	// Loss is the baseline per-link loss under which the faults land.
	Loss float64
	// ColdRestarts admits receiver and relay cold-restart episodes. Off by
	// default: hard state cannot resynchronize a cold downstream hop — no
	// refresh ever re-announces the lost state, and the probes guarding it
	// eventually orphan everything downstream (the paper's robustness
	// contrast) — so schedules meant to compare reconvergence times across
	// all five variants must not include them. Origin restarts stay in the
	// default set: the restarted application re-installs its own state,
	// which every variant can propagate.
	ColdRestarts bool
}

// Campaign episode layout. Episodes start after the workload converges
// and are spaced widely enough that time-to-reconverge is attributable to
// one episode; partition windows stay inside the hard-state orphan
// horizon (3 missed probe rounds × Timeout = 3 × 300 ms at the campaign
// defaults) so a cut never masquerades as sender death.
const (
	episodeStart   = 800 * time.Millisecond
	episodeSpacing = 1200 * time.Millisecond
	episodeJitter  = 200 * time.Millisecond
	partitionHold  = 600 * time.Millisecond
	lossBurstHold  = 400 * time.Millisecond
	campaignTail   = 3 * time.Second
)

func (o *CampaignOpts) applyDefaults() {
	if o.Episodes <= 0 {
		o.Episodes = 4
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Seed == 0 {
		o.Seed = 0xc405
	}
}

// Config expands the options into the concrete sim.CampaignConfig — the
// deterministic seed-to-schedule step, exposed so callers can inspect or
// log the timeline a seed produced.
func (o CampaignOpts) Config() sim.CampaignConfig {
	o.applyDefaults()
	rng := rand.NewSource(o.Seed ^ 0x5eedca3a)
	var schedule []sim.Fault
	at := episodeStart
	last := at
	for i := 0; i < o.Episodes; i++ {
		at += time.Duration(rng.Uniform(0, float64(episodeJitter)))
		kinds := 3
		if o.ColdRestarts {
			kinds = 5
		}
		switch rng.Intn(kinds) {
		case 0:
			schedule = append(schedule, sim.Fault{At: at, Kind: sim.FaultSenderRestart})
		case 1:
			cut := rng.Intn(o.Nodes - 1)
			schedule = append(schedule,
				sim.Fault{At: at, Kind: sim.FaultPartition, Hop: cut},
				sim.Fault{At: at + partitionHold, Kind: sim.FaultHeal})
		case 2:
			link := rng.Intn(o.Nodes - 1)
			kind := sim.FaultForwardLoss
			if rng.Bernoulli(0.5) {
				kind = sim.FaultReverseLoss
			}
			p := rng.Uniform(0.3, 0.7)
			schedule = append(schedule,
				sim.Fault{At: at, Kind: kind, Hop: link, Loss: p},
				sim.Fault{At: at + lossBurstHold, Kind: kind, Hop: link, Loss: -1})
		case 3:
			schedule = append(schedule, sim.Fault{At: at, Kind: sim.FaultReceiverRestart})
		case 4:
			if o.Nodes < 3 {
				// A two-node chain has no relay to flap; cold-restart the
				// receiver instead so the episode count stays seed-stable.
				schedule = append(schedule, sim.Fault{At: at, Kind: sim.FaultReceiverRestart})
				break
			}
			schedule = append(schedule, sim.Fault{At: at, Kind: sim.FaultRelayRestart, Hop: rng.Intn(o.Nodes - 2)})
		}
		last = at
		at += episodeSpacing
	}
	return sim.CampaignConfig{
		Protocol: o.Protocol,
		Nodes:    o.Nodes,
		Loss:     o.Loss,
		Seed:     o.Seed,
		Schedule: schedule,
		Duration: last + campaignTail,
	}
}

// Run expands the seed and executes the campaign.
func Run(o CampaignOpts) (sim.CampaignResult, error) {
	return sim.RunCampaign(o.Config())
}

// Describe renders a generated schedule for logs and replay records.
func Describe(cfg sim.CampaignConfig) []string {
	out := make([]string, 0, len(cfg.Schedule))
	for _, f := range cfg.Schedule {
		out = append(out, fmt.Sprintf("t=%v %s hop=%d loss=%g", f.At, f.Kind, f.Hop, f.Loss))
	}
	return out
}
