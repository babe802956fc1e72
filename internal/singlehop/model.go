package singlehop

import (
	"fmt"

	"softstate/internal/markov"
)

// state enumerates the Markov states of Figure 3. The pair notation
// (sender, receiver) uses "1" for installed state and "-" for absent;
// C/C̄ mark matching/mismatching installed values. Subscripts 1 and 2
// separate the "message in flight" and "message lost, awaiting repair"
// phases of each inconsistent condition.
type state int

const (
	stInit1 state = iota // (1,-)₁: setup trigger in flight
	stInit2              // (1,-)₂: setup trigger lost, awaiting repair
	stC                  // C: consistent
	stCbar1              // C̄₁: update trigger in flight
	stCbar2              // C̄₂: update trigger lost, awaiting repair
	stRem1               // (-,1)₁: sender gone; removal in flight / timeout pending
	stRem2               // (-,1)₂: removal message lost
	stAbs                // (-,-): state removed everywhere (absorbing)
	numStates
)

var stateNames = [numStates]string{
	"(1,-)1", "(1,-)2", "C", "C~1", "C~2", "(-,1)1", "(-,1)2", "(-,-)",
}

func (s state) String() string { return stateNames[s] }

// Model is the solved-ready CTMC of one protocol at one parameter point.
type Model struct {
	Proto  Protocol
	Params Params

	chain *markov.Chain
	ids   [numStates]markov.StateID
	has   [numStates]bool
}

// Build constructs the Figure 3 chain with the Table I rates for proto.
// States that do not exist for a protocol — (-,1)₂ exists only with
// explicit removal — are omitted entirely so the absorption analysis stays
// well-posed.
func Build(proto Protocol, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Proto: proto, Params: p, chain: markov.NewChain()}
	add := func(s state) {
		m.ids[s] = m.chain.State(stateNames[s])
		m.has[s] = true
	}
	add(stInit1)
	add(stInit2)
	add(stC)
	add(stCbar1)
	add(stCbar2)
	add(stRem1)
	if proto.ExplicitRemoval() {
		add(stRem2)
	}
	add(stAbs)

	D, pl, T := p.Delay, p.Loss, p.Timeout
	lu, mr := p.UpdateRate, p.RemovalRate
	lf := p.FalseRemovalRate(proto)

	tr := func(from, to state, rate float64) {
		m.chain.AddTransition(m.ids[from], m.ids[to], rate)
	}

	// Trigger transmission outcomes (common to every protocol): after a
	// channel delay the in-flight trigger is either delivered or lost.
	tr(stInit1, stC, (1-pl)/D)
	tr(stInit1, stInit2, pl/D)
	tr(stCbar1, stC, (1-pl)/D)
	tr(stCbar1, stCbar2, pl/D)

	// Repair of a lost trigger (Table I row 3): refresh, retransmission,
	// or both, depending on the protocol.
	repair := m.repairRate()
	tr(stInit2, stC, repair)
	tr(stCbar2, stC, repair)

	// State updates at rate λu. The model serializes signaling: updates
	// are not accepted while a message is in flight, so there is no
	// transition out of (1,-)₁ or C̄₁ on update.
	tr(stC, stCbar1, lu)
	tr(stInit2, stInit1, lu)
	tr(stCbar2, stCbar1, lu)

	// Sender removal at rate μr: before the receiver ever installed state
	// the system absorbs directly; once the receiver holds state the
	// system must clean it up via (-,1)₁.
	tr(stInit2, stAbs, mr)
	tr(stC, stRem1, mr)
	tr(stCbar2, stRem1, mr)

	// Receiver-side cleanup (Table I rows 4–6).
	if proto.ExplicitRemoval() {
		tr(stRem1, stRem2, pl/D)        // removal message lost
		tr(stRem1, stAbs, (1-pl)/D)     // removal message delivered
		tr(stRem2, stAbs, m.rem2Rate()) // timeout and/or removal retransmission
	} else {
		tr(stRem1, stAbs, 1/T) // orphan removed only by state timeout
	}

	// False removal: the receiver drops live state (all refreshes in a
	// timeout window lost, or a false external signal for HS), leaving the
	// sender to repair via the slow path.
	tr(stC, stInit2, lf)
	tr(stCbar2, stInit2, lf)

	return m, nil
}

// repairRate is Table I row 3: the rate at which a lost setup/update is
// repaired in the slow-path states (1,-)₂ and C̄₂.
func (m *Model) repairRate() float64 {
	p := m.Params
	switch {
	case m.Proto == HS:
		return (1 - p.Loss) / p.Retransmit
	case m.Proto.ReliableTrigger():
		return (1/p.Refresh + 1/p.Retransmit) * (1 - p.Loss)
	default:
		return (1 - p.Loss) / p.Refresh
	}
}

// rem2Rate is Table I row 6: how state (-,1)₂ resolves for protocols with
// explicit removal.
func (m *Model) rem2Rate() float64 {
	p := m.Params
	switch m.Proto {
	case SSER:
		return 1 / p.Timeout
	case SSRTR:
		return 1/p.Timeout + (1-p.Loss)/p.Retransmit
	case HS:
		return (1 - p.Loss) / p.Retransmit
	default:
		panic(fmt.Sprintf("singlehop: protocol %v has no (-,1)2 state", m.Proto))
	}
}

// rate returns the model's transition rate between two Figure 3 states,
// zero when either state does not exist for the protocol.
func (m *Model) rate(from, to state) float64 {
	if !m.has[from] || !m.has[to] {
		return 0
	}
	return m.chain.Rate(m.ids[from], m.ids[to])
}
