package sim

import (
	"fmt"

	"softstate/internal/des"
	"softstate/internal/netsim"
	"softstate/internal/rand"
	"softstate/internal/singlehop"
	"softstate/internal/stats"
)

// Config parameterizes a single-hop simulation run.
type Config struct {
	// Protocol selects one of the five generic protocols.
	Protocol singlehop.Protocol
	// Params are the paper's single-hop system parameters.
	Params singlehop.Params
	// Sessions is the number of independent signaling sessions to
	// simulate; each session runs from state creation to removal
	// everywhere.
	Sessions int
	// Seed makes the run reproducible.
	Seed uint64
	// Timers selects the distribution of the protocol timers (refresh,
	// state-timeout, retransmission): exponential matches the analytic
	// model, deterministic reproduces deployed behavior (Figs. 11–12).
	Timers rand.TimerKind
	// AllowReorder disables the channel's FIFO clamp (ablation).
	AllowReorder bool
	// DisableNotification suppresses the timeout-removal notification of
	// SS+RT and SS+RTR (ablation: the paper motivates the mechanism in the
	// Fig 8(a) discussion; this measures what it buys).
	DisableNotification bool
	// StagedRefresh implements Pan & Schulzrinne's staged refresh timers
	// (paper ref [12]): after each trigger the refresh interval starts at
	// Γ and doubles up to R, recovering lost triggers quickly without
	// ACKs. Applies to refresh-capable protocols.
	StagedRefresh bool
	// NackOracle implements the idealized loss detection of Raman &
	// McCanne's NACK scheme (paper ref [15] and §IV): when a sender→
	// receiver message is lost, the receiver learns of the loss
	// immediately and sends a NACK (itself lossy, one channel delay);
	// the sender retransmits on NACK. The paper's SS+RT is the
	// timer-driven realization of the same idea — this oracle variant
	// bounds what any loss-detection scheme could achieve.
	NackOracle bool
}

// Estimate is a simulation output with its sampling uncertainty.
type Estimate struct {
	Mean float64
	// CI95 is the half-width of the 95% confidence interval (batch means).
	CI95 float64
}

// String renders "mean ± ci".
func (e Estimate) String() string { return fmt.Sprintf("%.6g ± %.2g", e.Mean, e.CI95) }

// Result aggregates a single-hop simulation.
type Result struct {
	// Inconsistency estimates I: total inconsistent time over total
	// session time (the ratio estimator matching eq. 1's semantics).
	Inconsistency Estimate
	// NormalizedRate estimates Λ = μr·E[messages per session].
	NormalizedRate Estimate
	// MessagesPerSession estimates E[N].
	MessagesPerSession Estimate
	// Lifetime estimates the mean signaling-state lifetime.
	Lifetime Estimate
	// Sessions is the number of sessions simulated.
	Sessions int
}

// sessionOutcome captures one session's raw measurements.
type sessionOutcome struct {
	inconsistentTime float64
	length           float64
	messages         int
}

// RunSingleHop simulates cfg.Sessions independent sessions and aggregates
// the paper's metrics with batch-means confidence intervals.
func RunSingleHop(cfg Config) (Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Sessions <= 0 {
		return Result{}, fmt.Errorf("sim: Sessions = %d must be positive", cfg.Sessions)
	}
	if cfg.Params.RemovalRate <= 0 {
		return Result{}, fmt.Errorf("sim: single-hop sessions require RemovalRate (μr) > 0")
	}
	root := rand.NewSource(cfg.Seed)
	outcomes := make([]sessionOutcome, cfg.Sessions)
	for i := range outcomes {
		outcomes[i] = runSession(cfg, root.Split())
	}
	return aggregate(cfg, outcomes), nil
}

// aggregate folds raw sessions into ratio estimates. The inconsistency
// ratio is a ratio of sums, so its CI comes from batch means: sessions are
// grouped into up to 30 batches and the per-batch ratios treated as IID.
func aggregate(cfg Config, outcomes []sessionOutcome) Result {
	batches := len(outcomes)
	if batches > 30 {
		batches = 30
	}
	var incons, rate, msgs, life stats.Mean
	per := (len(outcomes) + batches - 1) / batches
	for b := 0; b < len(outcomes); b += per {
		end := b + per
		if end > len(outcomes) {
			end = len(outcomes)
		}
		var it, lt float64
		var nm int
		for _, o := range outcomes[b:end] {
			it += o.inconsistentTime
			lt += o.length
			nm += o.messages
		}
		n := float64(end - b)
		if lt > 0 {
			incons.Add(it / lt)
		} else {
			incons.Add(0)
		}
		msgs.Add(float64(nm) / n)
		rate.Add(cfg.Params.RemovalRate * float64(nm) / n)
		life.Add(lt / n)
	}
	est := func(m stats.Mean) Estimate { return Estimate{Mean: m.Mean(), CI95: m.CI95()} }
	return Result{
		Inconsistency:      est(incons),
		NormalizedRate:     est(rate),
		MessagesPerSession: est(msgs),
		Lifetime:           est(life),
		Sessions:           len(outcomes),
	}
}

// runSession simulates one complete session lifecycle.
func runSession(cfg Config, rng *rand.Source) sessionOutcome {
	k := des.New()
	pair := netsim.NewPair(k, rng.Split(), netsim.Config{
		Loss:         cfg.Params.Loss,
		Delay:        rand.Timer{Kind: rand.Exponential, Mean: cfg.Params.Delay},
		AllowReorder: cfg.AllowReorder,
	})
	s := &session{
		cfg:  cfg,
		k:    k,
		pair: pair,
		rng:  rng.Split(),
	}
	s.start()
	// A session drains in thousands of events at most; the cap converts a
	// would-be livelock (e.g. a zero-delay timer loop) into a loud failure.
	const maxEventsPerSession = 50_000_000
	for k.Step() {
		if k.Fired() > maxEventsPerSession {
			panic("sim: session event budget exceeded — livelocked timer loop?")
		}
	}
	s.frac.Finish(s.endTime)
	return sessionOutcome{
		inconsistentTime: s.frac.TrueTime(),
		length:           s.endTime,
		messages:         pair.Totals().Transmissions,
	}
}

// session holds both endpoints of one single-hop session.
type session struct {
	cfg  Config
	k    *des.Kernel
	pair *netsim.Pair
	rng  *rand.Source

	frac    stats.Fraction
	endTime float64

	// Sender state.
	senderValue   int // 0 = removed
	senderRemoved bool
	seq           int
	ackedSeq      int
	refreshTimer  *des.Timer
	retxTimer     *des.Timer
	remRetxTimer  *des.Timer
	removalAcked  bool
	updateEv      *des.Event
	lifetimeEv    *des.Event

	// Receiver state.
	receiverValue int // 0 = absent
	timeoutTimer  *des.Timer
	falseSigTimer *des.Timer

	// stagedInterval is the current staged refresh interval (StagedRefresh).
	stagedInterval float64
}

func (s *session) proto() singlehop.Protocol { return s.cfg.Protocol }

func (s *session) timer(mean float64) rand.Timer {
	return rand.Timer{Kind: s.cfg.Timers, Mean: mean}
}

// observe re-evaluates consistency after any state change. The sender and
// receiver are consistent when their values match, including the
// both-removed case (which also marks a candidate session end).
func (s *session) observe() {
	consistent := s.senderValue == s.receiverValue
	s.frac.Observe(s.k.Now(), !consistent)
	if s.senderRemoved && s.receiverValue == 0 {
		s.endTime = s.k.Now()
	}
}

func (s *session) start() {
	p := s.cfg.Params
	s.senderValue = 1
	s.observe()
	s.sendTrigger()

	if s.proto().Refreshes() {
		s.refreshTimer = s.k.NewTimer(s.onRefresh)
		interval := p.Refresh
		if s.cfg.StagedRefresh {
			// The staged schedule starts right behind the initial trigger.
			s.stagedInterval = p.Retransmit
			interval = s.stagedInterval
		}
		s.refreshTimer.Reset(s.timer(interval).Sample(s.rng))
	}
	if p.UpdateRate > 0 {
		s.updateEv = s.k.Schedule(s.rng.Exp(1/p.UpdateRate), s.onUpdate)
	}
	s.lifetimeEv = s.k.Schedule(s.rng.Exp(1/p.RemovalRate), s.onSenderRemoval)
}

// --- sender behavior ---

func (s *session) sendTrigger() {
	s.seq++
	m := message{Type: msgTrigger, Seq: s.seq, Value: s.senderValue}
	s.forwardWithOracle(m)
	if s.proto().ReliableTrigger() {
		if s.retxTimer == nil {
			s.retxTimer = s.k.NewTimer(s.onTriggerRetx)
		}
		s.retxTimer.Reset(s.timer(s.cfg.Params.Retransmit).Sample(s.rng))
	}
	// Sending fresh state doubles as a refresh. With staged refresh the
	// next refresh comes quickly (interval Γ) and backs off toward R.
	if s.refreshTimer != nil && !s.senderRemoved {
		interval := s.cfg.Params.Refresh
		if s.cfg.StagedRefresh {
			s.stagedInterval = s.cfg.Params.Retransmit
			interval = s.stagedInterval
		}
		s.refreshTimer.Reset(s.timer(interval).Sample(s.rng))
	}
}

// forwardWithOracle transmits a sender→receiver message; when the NACK
// oracle is active and the message is lost, the receiver immediately
// learns of the loss and sends a (lossy) NACK back.
func (s *session) forwardWithOracle(m message) {
	lost := s.pair.Forward.Send(func() { s.onReceiverMessage(m) })
	if lost && s.cfg.NackOracle {
		nack := message{Type: msgNack, Seq: m.Seq}
		s.pair.Reverse.Send(func() { s.onSenderMessage(nack) })
	}
}

func (s *session) onTriggerRetx() {
	if s.senderRemoved || s.ackedSeq >= s.seq {
		return
	}
	s.sendTrigger()
}

func (s *session) onRefresh() {
	if s.senderRemoved {
		return
	}
	m := message{Type: msgRefresh, Seq: s.seq, Value: s.senderValue}
	s.forwardWithOracle(m)
	interval := s.cfg.Params.Refresh
	if s.cfg.StagedRefresh {
		if s.stagedInterval <= 0 {
			s.stagedInterval = s.cfg.Params.Retransmit
		}
		s.stagedInterval *= 2
		if s.stagedInterval > s.cfg.Params.Refresh {
			s.stagedInterval = s.cfg.Params.Refresh
		}
		interval = s.stagedInterval
	}
	s.refreshTimer.Reset(s.timer(interval).Sample(s.rng))
}

func (s *session) onUpdate() {
	if s.senderRemoved {
		return
	}
	s.senderValue++
	s.observe()
	s.sendTrigger()
	s.updateEv = s.k.Schedule(s.rng.Exp(1/s.cfg.Params.UpdateRate), s.onUpdate)
}

func (s *session) onSenderRemoval() {
	s.senderRemoved = true
	s.senderValue = 0
	if s.updateEv != nil {
		s.updateEv.Cancel()
	}
	if s.refreshTimer != nil {
		s.refreshTimer.Stop()
	}
	if s.retxTimer != nil {
		s.retxTimer.Stop()
	}
	s.observe()
	if s.proto().ExplicitRemoval() {
		s.sendRemoval()
	}
}

func (s *session) sendRemoval() {
	m := message{Type: msgRemoval, Seq: s.seq}
	s.pair.Forward.Send(func() { s.onReceiverMessage(m) })
	if s.proto().ReliableRemoval() && !s.removalAcked {
		if s.remRetxTimer == nil {
			s.remRetxTimer = s.k.NewTimer(s.onRemovalRetx)
		}
		s.remRetxTimer.Reset(s.timer(s.cfg.Params.Retransmit).Sample(s.rng))
	}
}

func (s *session) onRemovalRetx() {
	if s.removalAcked {
		return
	}
	s.sendRemoval()
}

// onSenderMessage handles receiver → sender traffic.
func (s *session) onSenderMessage(m message) {
	switch m.Type {
	case msgAck:
		if m.Seq > s.ackedSeq {
			s.ackedSeq = m.Seq
		}
		if s.retxTimer != nil && s.ackedSeq >= s.seq {
			s.retxTimer.Stop()
		}
	case msgRemovalAck:
		s.removalAcked = true
		if s.remRetxTimer != nil {
			s.remRetxTimer.Stop()
		}
	case msgNotify:
		// The receiver removed our state (timeout or false external
		// signal); if we still hold state, repair with a fresh trigger.
		if !s.senderRemoved {
			s.sendTrigger()
		}
	case msgNack:
		// Oracle loss detection: retransmit the current state. Stale
		// NACKs for superseded messages are harmless — the retransmission
		// carries the latest value.
		if !s.senderRemoved {
			s.sendTrigger()
		}
	}
}

// --- receiver behavior ---

func (s *session) onReceiverMessage(m message) {
	p := s.cfg.Params
	switch m.Type {
	case msgTrigger, msgRefresh:
		s.receiverValue = m.Value
		s.observe()
		if s.proto().Refreshes() {
			if s.timeoutTimer == nil {
				s.timeoutTimer = s.k.NewTimer(s.onReceiverTimeout)
			}
			s.timeoutTimer.Reset(s.timer(p.Timeout).Sample(s.rng))
		}
		if s.proto() == singlehop.HS {
			s.armFalseSignal()
		}
		if m.Type == msgTrigger && s.proto().ReliableTrigger() {
			ack := message{Type: msgAck, Seq: m.Seq}
			s.pair.Reverse.Send(func() { s.onSenderMessage(ack) })
		}
	case msgRemoval:
		s.removeReceiverState()
		if s.proto().ReliableRemoval() {
			ack := message{Type: msgRemovalAck, Seq: m.Seq}
			s.pair.Reverse.Send(func() { s.onSenderMessage(ack) })
		}
	}
}

func (s *session) onReceiverTimeout() {
	if s.receiverValue == 0 {
		return
	}
	s.removeReceiverState()
	// SS+RT and SS+RTR notify the sender so it can repair false removals.
	if s.proto().ReliableTrigger() && s.proto() != singlehop.HS && !s.cfg.DisableNotification {
		n := message{Type: msgNotify}
		s.pair.Reverse.Send(func() { s.onSenderMessage(n) })
	}
}

// armFalseSignal schedules the hard-state external failure detector's next
// false firing while the receiver holds state.
func (s *session) armFalseSignal() {
	if s.cfg.Params.FalseSignal <= 0 {
		return
	}
	if s.falseSigTimer == nil {
		s.falseSigTimer = s.k.NewTimer(s.onFalseSignal)
	}
	if !s.falseSigTimer.Active() {
		s.falseSigTimer.Reset(s.rng.Exp(1 / s.cfg.Params.FalseSignal))
	}
}

func (s *session) onFalseSignal() {
	if s.receiverValue == 0 {
		return
	}
	s.removeReceiverState()
	n := message{Type: msgNotify}
	s.pair.Reverse.Send(func() { s.onSenderMessage(n) })
}

func (s *session) removeReceiverState() {
	if s.receiverValue == 0 {
		return
	}
	s.receiverValue = 0
	if s.timeoutTimer != nil {
		s.timeoutTimer.Stop()
	}
	if s.falseSigTimer != nil {
		s.falseSigTimer.Stop()
	}
	s.observe()
}
