// Command sigsim runs ad-hoc signaling simulations and analytic solutions
// at user-chosen parameter points — the interactive counterpart to
// sigfig's fixed paper sweeps.
//
// Examples:
//
//	sigsim -proto SS+ER -lifetime 600 -loss 0.05
//	sigsim -proto HS -analytic-only
//	sigsim -multihop -proto SS+RT -hops 12 -horizon 20000
//	sigsim -live -proto all -loss 0.15
//	sigsim -chaos -proto all -seed 42 -episodes 4
//
// The -live mode leaves the abstract state machines behind entirely: it
// runs the requested protocols on the real wire stack (a two-node
// node.Chain over a lossy.Network, with retransmission backoff and
// hard-state orphan probes) under a virtual clock — the paper's five-way
// comparison on production code, deterministic per seed.
//
// The -chaos mode expands -seed into a failure campaign (crash/restart
// episodes, partition-and-heal windows, loss bursts) and replays it
// against the live multi-hop runtime, printing the generated timeline,
// time-to-reconverge, inconsistency under partition, and any invariant
// violations. The seed is the whole reproduction recipe: re-running with
// the same seed replays the campaign byte-identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"softstate/internal/chaos"
	"softstate/internal/multihop"
	"softstate/internal/rand"
	"softstate/internal/sim"
	"softstate/internal/singlehop"
	"softstate/internal/variant"
)

func main() {
	var (
		protoName = flag.String("proto", "SS", "protocol: SS, SS+ER, SS+RT, SS+RTR, HS, or all")
		lifetime  = flag.Float64("lifetime", 1800, "mean session length 1/μr in seconds (single-hop)")
		update    = flag.Float64("update-interval", 20, "mean update interval 1/λu in seconds")
		loss      = flag.Float64("loss", 0.02, "per-message loss probability pl")
		delay     = flag.Float64("delay", 0.030, "one-way channel delay D in seconds")
		refresh   = flag.Float64("refresh", 5, "refresh timer R in seconds")
		timeout   = flag.Float64("timeout", 0, "state-timeout timer T in seconds (0 = 3R)")
		retx      = flag.Float64("retransmit", 0, "retransmission timer Γ in seconds (0 = 4D)")
		sessions  = flag.Int("sessions", 2000, "sessions to simulate")
		seed      = flag.Uint64("seed", 1, "random seed")
		timers    = flag.String("timers", "deterministic", "timer distribution: deterministic, exponential, jitter")
		anaOnly   = flag.Bool("analytic-only", false, "skip simulation")
		multi     = flag.Bool("multihop", false, "run the multi-hop study instead of single-hop")
		live      = flag.Bool("live", false, "run the real wire stack in virtual time instead of the abstract simulator")
		chaosRun  = flag.Bool("chaos", false, "expand -seed into a failure campaign and replay it on the live stack")
		episodes  = flag.Int("episodes", 4, "failure episodes to generate (chaos)")
		coldRst   = flag.Bool("cold-restarts", false, "admit receiver/relay cold-restart episodes (chaos; hard state cannot recover from these)")
		liveKeys  = flag.Int("live-keys", 24, "concurrently signaled keys (live)")
		liveDur   = flag.Duration("live-duration", 60*time.Second, "virtual experiment length (live)")
		hops      = flag.Int("hops", 20, "path length N (multi-hop)")
		horizon   = flag.Float64("horizon", 50000, "simulated seconds per run (multi-hop)")
		runs      = flag.Int("runs", 3, "independent replications (multi-hop)")
		alpha     = flag.Float64("alpha", 10, "inconsistency cost weight α for C = α·I + Λ")
	)
	flag.Parse()

	if *chaosRun {
		if err := runChaos(*protoName, *seed, *episodes, *loss, *coldRst); err != nil {
			fmt.Fprintln(os.Stderr, "sigsim:", err)
			os.Exit(1)
		}
		return
	}

	if *live {
		if err := runLive(*protoName, *liveKeys, *loss, *delay, *hops, *liveDur, *seed, *multi); err != nil {
			fmt.Fprintln(os.Stderr, "sigsim:", err)
			os.Exit(1)
		}
		return
	}

	protos, err := parseProtocols(*protoName, *multi)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigsim:", err)
		os.Exit(2)
	}
	kind, err := parseTimers(*timers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigsim:", err)
		os.Exit(2)
	}

	if *multi {
		mp := multihop.DefaultParams().WithHops(*hops).WithRefresh(*refresh)
		if *timeout > 0 {
			mp.Timeout = *timeout
		}
		mp.Loss = *loss
		mp.Delay = *delay
		if *retx > 0 {
			mp.Retransmit = *retx
		} else {
			mp.Retransmit = 4 * *delay
		}
		mp.UpdateRate = 1 / *update
		runMultihop(protos, mp, *anaOnly, *horizon, *runs, *seed, kind)
		return
	}

	p := singlehop.DefaultParams().WithSessionLength(*lifetime).WithRefresh(*refresh).WithDelay(*delay)
	p.UpdateRate = 1 / *update
	p.Loss = *loss
	if *timeout > 0 {
		p.Timeout = *timeout
	}
	if *retx > 0 {
		p.Retransmit = *retx
	}
	runSinglehop(protos, p, *anaOnly, *sessions, *seed, kind, *alpha)
}

// runChaos expands the seed into a fault timeline and replays it against
// every requested protocol on the live multi-hop runtime. The printed
// schedule plus the seed fully reproduce the run.
func runChaos(protoName string, seed uint64, episodes int, loss float64, coldRestarts bool) error {
	var profiles []variant.Profile
	if strings.EqualFold(protoName, "all") {
		profiles = variant.All()
	} else {
		prof, err := variant.Parse(protoName)
		if err != nil {
			return err
		}
		profiles = []variant.Profile{prof}
	}
	opts := chaos.CampaignOpts{Seed: seed, Episodes: episodes, Loss: loss, ColdRestarts: coldRestarts}
	cfg := opts.Config()
	fmt.Printf("chaos campaign: seed %d, %d episodes, baseline loss %.3g, duration %v\n",
		seed, episodes, loss, cfg.Duration)
	for _, line := range chaos.Describe(cfg) {
		fmt.Println(" ", line)
	}
	fmt.Println()
	fmt.Printf("%-8s %10s %13s %12s %12s %12s\n",
		"proto", "ttr", "partition I", "audits", "violations", "reconverged")
	for _, prof := range profiles {
		opts.Protocol = prof.Proto
		res, err := chaos.Run(opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %10v %13.4f %12d %12d %12v\n",
			prof.Name, res.TimeToReconverge.Round(time.Millisecond),
			res.InconsistencyUnderPartition, res.Audits, len(res.Violations), res.Reconverged)
		for _, v := range res.Violations {
			fmt.Println("    violation:", v)
		}
	}
	return nil
}

// runLive executes the requested protocols on the real runtime in virtual
// time: R = 100 ms with the paper's R:T:Γ ratios, churned keys, and the
// external false-removal signal, single hop unless -multihop gives a
// chain length. Timers are scaled (not the wall-clock paper values) so a
// minute of virtual time spans many session lifetimes.
func runLive(protoName string, keys int, loss, delay float64, hops int, dur time.Duration, seed uint64, multi bool) error {
	base := sim.LiveConfig{
		Hops:            1,
		Keys:            keys,
		Loss:            loss,
		Delay:           time.Duration(delay * float64(time.Second)),
		RefreshInterval: 100 * time.Millisecond,
		MeanLifetime:    3 * time.Second,
		MeanGap:         time.Second,
		MeanFalseSignal: 2 * time.Second,
		Duration:        dur,
		Seed:            seed,
	}
	if multi {
		base.Hops = hops
	}
	var profiles []variant.Profile
	if strings.EqualFold(protoName, "all") {
		profiles = variant.All()
	} else {
		prof, err := variant.Parse(protoName)
		if err != nil {
			return err
		}
		profiles = []variant.Profile{prof}
	}
	fmt.Printf("live stack (virtual time): %d keys, %d hop(s), pl=%.3g, D=%v, R=%v, %v per run\n\n",
		base.Keys, base.Hops, base.Loss, base.Delay, base.RefreshInterval, base.Duration)
	fmt.Printf("%-8s %10s %14s %12s   %s\n", "proto", "live I", "dgrams/key/s", "machinery", "mechanisms")
	for _, prof := range profiles {
		cfg := base
		cfg.Protocol = prof.Proto
		r, err := sim.RunLive(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %10.5f %14.2f %12d   %s\n",
			prof.Name, r.Inconsistency, r.Rate, r.Machinery(), prof.Mechanisms())
	}
	return nil
}

func parseProtocols(name string, multi bool) ([]singlehop.Protocol, error) {
	all := singlehop.Protocols()
	if multi {
		all = multihop.Protocols()
	}
	if strings.EqualFold(name, "all") {
		return all, nil
	}
	for _, p := range all {
		if strings.EqualFold(p.String(), name) {
			return []singlehop.Protocol{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown protocol %q (multihop=%v)", name, multi)
}

func parseTimers(name string) (rand.TimerKind, error) {
	switch strings.ToLower(name) {
	case "deterministic", "det":
		return rand.Deterministic, nil
	case "exponential", "exp":
		return rand.Exponential, nil
	case "jitter", "uniform":
		return rand.UniformJitter, nil
	default:
		return 0, fmt.Errorf("unknown timer distribution %q", name)
	}
}

func runSinglehop(protos []singlehop.Protocol, p singlehop.Params, anaOnly bool, sessions int, seed uint64, kind rand.TimerKind, alpha float64) {
	fmt.Printf("single-hop: 1/μr=%.4gs 1/λu=%.4gs pl=%.3g D=%.3gs R=%.3gs T=%.3gs Γ=%.3gs\n\n",
		1/p.RemovalRate, 1/p.UpdateRate, p.Loss, p.Delay, p.Refresh, p.Timeout, p.Retransmit)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "proto", "analytic I", "analytic Λ", "cost C", "lifetime")
	for _, proto := range protos {
		m, err := singlehop.Analyze(proto, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%-8v %12.5f %12.4f %12.4f %12.1f\n",
			proto, m.Inconsistency, m.NormalizedRate, singlehop.IntegratedCost(alpha, m), m.Lifetime)
	}
	if anaOnly {
		return
	}
	fmt.Printf("\nsimulation (%d sessions, %v timers):\n", sessions, kind)
	fmt.Printf("%-8s %22s %22s\n", "proto", "sim I (±95%)", "sim Λ (±95%)")
	for _, proto := range protos {
		res, err := sim.RunSingleHop(sim.Config{
			Protocol: proto, Params: p, Sessions: sessions, Seed: seed, Timers: kind,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%-8v %22s %22s\n", proto, res.Inconsistency, res.NormalizedRate)
	}
}

func runMultihop(protos []singlehop.Protocol, mp multihop.Params, anaOnly bool, horizon float64, runs int, seed uint64, kind rand.TimerKind) {
	fmt.Printf("multi-hop: N=%d 1/λu=%.4gs pl=%.3g D=%.3gs R=%.3gs T=%.3gs Γ=%.3gs\n\n",
		mp.Hops, 1/mp.UpdateRate, mp.Loss, mp.Delay, mp.Refresh, mp.Timeout, mp.Retransmit)
	fmt.Printf("%-8s %12s %14s\n", "proto", "analytic I", "analytic rate")
	for _, proto := range protos {
		m, err := multihop.Analyze(proto, mp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%-8v %12.5f %14.4f\n", proto, m.Inconsistency, m.MsgRate)
	}
	if anaOnly {
		return
	}
	fmt.Printf("\nsimulation (%d runs × %.0fs, %v timers):\n", runs, horizon, kind)
	fmt.Printf("%-8s %22s %22s\n", "proto", "sim I (±95%)", "sim rate (±95%)")
	for _, proto := range protos {
		res, err := sim.RunMultiHop(sim.MultiConfig{
			Protocol: proto, Params: mp, Horizon: horizon, Runs: runs, Seed: seed, Timers: kind,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%-8v %22s %22s\n", proto, res.Inconsistency, res.MsgRate)
	}
}
