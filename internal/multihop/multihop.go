// Package multihop implements the paper's multi-hop analytic models
// (§III-B): a signaling sender installing state along a chain of N
// receivers, modeled as a CTMC over states (i,s) where i is the number of
// consistent hops and s distinguishes the fast path (a trigger in flight,
// s=0) from the slow path (a trigger lost, awaiting repair, s=1), plus a
// recovery state F for the hard-state protocol.
//
// The paper evaluates three protocols in this setting: end-to-end soft
// state (SS), soft state with hop-by-hop reliable triggers (SS+RT), and
// hard state (HS). State lifetime is infinite (μr → 0) so the process is
// stationary; the outputs are the end-to-end inconsistency ratio
// I = 1 − π(N,0) (eq. 12), the per-hop inconsistency of Figure 17, and the
// signaling message rate across all links (eqs. 13–17).
package multihop

import (
	"fmt"
	"math"

	"softstate/internal/markov"
	"softstate/internal/singlehop"
)

// Params holds the multi-hop system parameters (§III-B.2). Hops are
// homogeneous: identical loss and delay per hop, independent losses.
type Params struct {
	// Hops is N, the number of links between the sender and the final
	// receiver.
	Hops int
	// UpdateRate is λu, the sender's state-update rate.
	UpdateRate float64
	// Delay is the per-hop one-way channel delay D.
	Delay float64
	// Loss is the per-hop loss probability pl.
	Loss float64
	// Refresh is the soft-state refresh timer R.
	Refresh float64
	// Timeout is the soft-state state-timeout timer T.
	Timeout float64
	// Retransmit is the per-hop retransmission timer Γ.
	Retransmit float64
	// FalseRemoval is λf, the per-receiver false-removal rate used by the
	// hard-state protocol's external failure signal.
	FalseRemoval float64
}

// DefaultParams returns the paper's multi-hop defaults (§III-B.2): N = 20,
// pl = 0.02 and D = 30 ms per hop, 1/λu = 60 s, R = 5 s, T = 3R, Γ = 4D,
// and λf = pl^(T/R)/T (kept in the single-hop false-removal form so the
// hard-state false-signal pressure is comparable across sections; the
// scanned text is ambiguous about the 1/T factor, see DESIGN.md).
func DefaultParams() Params {
	const d = 0.030
	p := Params{
		Hops:       20,
		UpdateRate: 1.0 / 60,
		Delay:      d,
		Loss:       0.02,
		Refresh:    5,
		Timeout:    15,
		Retransmit: 4 * d,
	}
	p.FalseRemoval = math.Pow(p.Loss, p.Timeout/p.Refresh) / p.Timeout
	return p
}

// WithHops returns a copy with N set.
func (p Params) WithHops(n int) Params {
	p.Hops = n
	return p
}

// WithRefresh returns a copy with R set and T = 3R maintained.
func (p Params) WithRefresh(r float64) Params {
	p.Refresh = r
	p.Timeout = 3 * r
	return p
}

// Validate reports the first structural problem with the parameters.
func (p Params) Validate() error {
	if p.Hops <= 0 {
		return fmt.Errorf("multihop: Hops = %d must be positive", p.Hops)
	}
	pos := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("multihop: invalid %s = %v", name, v)
		}
		return nil
	}
	if err := pos("Delay (D)", p.Delay); err != nil {
		return err
	}
	if err := pos("Refresh (R)", p.Refresh); err != nil {
		return err
	}
	if err := pos("Timeout (T)", p.Timeout); err != nil {
		return err
	}
	if err := pos("Retransmit (Γ)", p.Retransmit); err != nil {
		return err
	}
	if p.Loss < 0 || p.Loss >= 1 || math.IsNaN(p.Loss) {
		return fmt.Errorf("multihop: loss probability pl = %v outside [0,1)", p.Loss)
	}
	if p.UpdateRate < 0 || math.IsNaN(p.UpdateRate) || math.IsInf(p.UpdateRate, 0) {
		return fmt.Errorf("multihop: invalid UpdateRate (λu) = %v", p.UpdateRate)
	}
	if p.FalseRemoval < 0 || math.IsNaN(p.FalseRemoval) || math.IsInf(p.FalseRemoval, 0) {
		return fmt.Errorf("multihop: invalid FalseRemoval (λf) = %v", p.FalseRemoval)
	}
	return nil
}

// Protocols returns the protocols the multi-hop study covers, in the
// paper's order.
func Protocols() []singlehop.Protocol {
	return []singlehop.Protocol{singlehop.SS, singlehop.SSRT, singlehop.HS}
}

// Supported reports whether the paper's multi-hop analysis covers proto.
func Supported(proto singlehop.Protocol) bool {
	switch proto {
	case singlehop.SS, singlehop.SSRT, singlehop.HS:
		return true
	default:
		return false
	}
}

// Model is the solved-ready multi-hop CTMC for one protocol.
type Model struct {
	Proto  singlehop.Protocol
	Params Params

	chain *markov.Chain
	fast  []markov.StateID // fast[i] = (i,0), i ∈ [0,N]
	slow  []markov.StateID // slow[i] = (i,1), i ∈ [0,N-1]
	fault markov.StateID   // F (HS only)
	hasF  bool
}

// Build constructs the Figure 15/16 chain for proto at parameters p.
func Build(proto singlehop.Protocol, p Params) (*Model, error) {
	if !Supported(proto) {
		return nil, fmt.Errorf("multihop: protocol %v is not part of the paper's multi-hop analysis (use SS, SS+RT, or HS)", proto)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Hops
	m := &Model{Proto: proto, Params: p, chain: markov.NewChain()}
	m.fast = make([]markov.StateID, n+1)
	m.slow = make([]markov.StateID, n)
	for i := 0; i <= n; i++ {
		m.fast[i] = m.chain.State(fmt.Sprintf("(%d,0)", i))
	}
	for i := 0; i < n; i++ {
		m.slow[i] = m.chain.State(fmt.Sprintf("(%d,1)", i))
	}
	if proto == singlehop.HS {
		m.fault = m.chain.State("F")
		m.hasF = true
	}

	D, pl := p.Delay, p.Loss
	lu := p.UpdateRate

	// Fast path: the in-flight trigger either crosses hop i+1 or is lost.
	for i := 0; i < n; i++ {
		m.chain.AddTransition(m.fast[i], m.fast[i+1], (1-pl)/D)
		m.chain.AddTransition(m.fast[i], m.slow[i], pl/D)
	}

	// Slow path repair (eqs. 10–11): a refresh that survives i+1 hops
	// and/or a hop-by-hop retransmission that survives one hop moves the
	// frontier forward and resumes the fast path.
	for i := 0; i < n; i++ {
		m.chain.AddTransition(m.slow[i], m.fast[i+1], m.repairRate(i))
	}

	// Updates restart installation from scratch (from every other state).
	if lu > 0 {
		for i := 1; i <= n; i++ {
			m.chain.AddTransition(m.fast[i], m.fast[0], lu)
		}
		for i := 0; i < n; i++ {
			m.chain.AddTransition(m.slow[i], m.fast[0], lu)
		}
		if m.hasF {
			m.chain.AddTransition(m.fault, m.fast[0], lu)
		}
	}

	switch proto {
	case singlehop.SS, singlehop.SSRT:
		// Timeout cascade (eq. 9): from the fully consistent state, the
		// first receiver whose timeout expires is j+1, taking every
		// receiver beyond it down too and leaving j consistent hops.
		for j := 0; j < n; j++ {
			m.chain.AddTransition(m.fast[n], m.slow[j], p.timeoutRate(j))
		}
	case singlehop.HS:
		// False removal: any of the N receivers may see a false external
		// signal, entering the recovery state; the sender learns of it
		// after ≈N/2 hops of notification latency and re-installs.
		rate := float64(n) * p.FalseRemoval
		if rate > 0 {
			for i := 0; i <= n; i++ {
				m.chain.AddTransition(m.fast[i], m.fault, rate)
			}
			for i := 0; i < n; i++ {
				m.chain.AddTransition(m.slow[i], m.fault, rate)
			}
			m.chain.AddTransition(m.fault, m.fast[0], 2/(float64(n)*D))
		}
	}
	return m, nil
}

// repairRate returns the (i,1) → (i+1,0) rate: eq. 10 for the soft
// protocols, eq. 11 for hard state.
func (m *Model) repairRate(i int) float64 {
	p := m.Params
	refresh := math.Pow(1-p.Loss, float64(i+1)) / p.Refresh
	retx := (1 - p.Loss) / p.Retransmit
	switch m.Proto {
	case singlehop.SS:
		return refresh
	case singlehop.SSRT:
		return refresh + retx
	default: // HS
		return retx
	}
}

// timeoutRate is eq. 9: the rate at which, from full consistency, the
// first state-timeout happens at receiver j+1 (leaving j consistent hops).
// The probability that all T/R refreshes within a timeout window fail to
// reach receiver k is (1 − (1−pl)^k)^(T/R).
func (p Params) timeoutRate(j int) float64 {
	if p.Loss == 0 {
		return 0
	}
	exp := p.Timeout / p.Refresh
	reach := func(k int) float64 {
		return math.Pow(1-math.Pow(1-p.Loss, float64(k)), exp)
	}
	r := (reach(j+1) - reach(j)) / p.Timeout
	if r < 0 {
		return 0
	}
	return r
}
