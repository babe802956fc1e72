package singlehop

import "fmt"

// Breakdown itemizes the steady-state signaling message rate by message
// class, following eqs. 3–7. Classes a protocol does not use are zero.
type Breakdown struct {
	// Trigger is m_tr: explicit setup/update trigger transmissions (eq. 3).
	Trigger float64
	// Removal is m_rm: explicit removal transmissions (eq. 4).
	Removal float64
	// Refresh is m_r: soft-state refresh transmissions (eq. 5).
	Refresh float64
	// ReliableTrigger is m_rt: trigger retransmissions, trigger ACKs, and
	// false-removal notifications (eq. 6).
	ReliableTrigger float64
	// ReliableRemoval is m_rr: removal retransmissions and ACKs (eq. 7).
	ReliableRemoval float64
}

// Metrics are the paper's evaluation outputs for one protocol/parameter
// point.
type Metrics struct {
	// Inconsistency is I: the fraction of a session during which sender
	// and receiver state disagree (eq. 1).
	Inconsistency float64
	// Lifetime is the mean signaling-state lifetime Υ: expected time from
	// state creation at the sender until removal everywhere.
	Lifetime float64
	// MsgRate is m: the mean steady-state signaling message rate.
	MsgRate float64
	// MessagesPerSession is E[N] = Υ·m (eq. 2).
	MessagesPerSession float64
	// NormalizedRate is Λ = μr·E[N], the paper's "average signaling
	// message rate" axis, comparable across protocols because it divides
	// by the invariant mean sender session length.
	NormalizedRate float64
	// Breakdown itemizes MsgRate by message class.
	Breakdown Breakdown
}

// Solve computes the Metrics for the model: session lifetime from the
// absorption analysis, the inconsistency ratio from the stationary
// distribution of the regenerative (absorbing-state-merged) chain, and
// message rates from eqs. 3–7.
func (m *Model) Solve() (Metrics, error) {
	abs, err := m.chain.Absorption(m.ids[stInit1], m.ids[stAbs])
	if err != nil {
		return Metrics{}, fmt.Errorf("singlehop: %v lifetime analysis: %w", m.Proto, err)
	}
	recurrent := m.chain.Redirect(m.ids[stAbs], m.ids[stInit1])
	pi, err := recurrent.StationaryDistribution()
	if err != nil {
		return Metrics{}, fmt.Errorf("singlehop: %v stationary analysis: %w", m.Proto, err)
	}
	get := func(s state) float64 {
		if !m.has[s] {
			return 0
		}
		return pi[m.ids[s]]
	}

	p := m.Params
	lf := p.FalseRemovalRate(m.Proto)

	var b Breakdown
	// eq. 3: every trigger transmission, successful or lost, from the two
	// in-flight states.
	b.Trigger = get(stInit1)*(m.rate(stInit1, stC)+m.rate(stInit1, stInit2)) +
		get(stCbar1)*(m.rate(stCbar1, stC)+m.rate(stCbar1, stCbar2))

	// eq. 4: explicit removal transmissions (delivered or lost).
	if m.Proto.ExplicitRemoval() {
		b.Removal = get(stRem1) * (m.rate(stRem1, stAbs) + m.rate(stRem1, stRem2))
	}

	// eq. 5: refreshes are generated at rate 1/R while the sender holds
	// state outside the in-flight phases.
	if m.Proto.Refreshes() {
		b.Refresh = (get(stInit2) + get(stC) + get(stCbar2)) / p.Refresh
	}

	// eq. 6: retransmissions in the slow-path states, one ACK per
	// transition into C, and one notification per false removal.
	if m.Proto.ReliableTrigger() {
		retx := (get(stInit2) + get(stCbar2)) / p.Retransmit
		acks := get(stInit1)*m.rate(stInit1, stC) +
			get(stCbar1)*m.rate(stCbar1, stC) +
			get(stInit2)*m.rate(stInit2, stC) +
			get(stCbar2)*m.rate(stCbar2, stC)
		notify := lf * (get(stC) + get(stCbar2))
		b.ReliableTrigger = retx + acks + notify
	}

	// eq. 7: removal retransmissions in (-,1)₂ plus ACKs for resolved
	// removals.
	if m.Proto.ReliableRemoval() {
		b.ReliableRemoval = get(stRem2)/p.Retransmit +
			get(stRem1)*m.rate(stRem1, stAbs) +
			get(stRem2)*m.rate(stRem2, stAbs)
	}

	rate := b.Trigger + b.Removal + b.Refresh + b.ReliableTrigger + b.ReliableRemoval

	met := Metrics{
		Inconsistency:      1 - get(stC),
		Lifetime:           abs.MeanTime,
		MsgRate:            rate,
		MessagesPerSession: abs.MeanTime * rate,
		Breakdown:          b,
	}
	met.NormalizedRate = p.RemovalRate * met.MessagesPerSession
	return met, nil
}

// Analyze is the one-call convenience: build the model for proto at p and
// solve it.
func Analyze(proto Protocol, p Params) (Metrics, error) {
	m, err := Build(proto, p)
	if err != nil {
		return Metrics{}, err
	}
	return m.Solve()
}

// IntegratedCost returns C = α·I + Λ (eq. 8), the weighted sum of
// application inconsistency cost and signaling overhead; the paper uses
// α = 10 msg/s for the Kazaa scenario.
func IntegratedCost(alpha float64, met Metrics) float64 {
	return alpha*met.Inconsistency + met.NormalizedRate
}

// Comparison pairs a protocol with its analytic metrics.
type Comparison struct {
	Protocol Protocol
	Metrics  Metrics
}

// Compare solves every protocol at the same parameter point, in the
// paper's order — the five-way comparison behind Figures 4–10.
func Compare(p Params) ([]Comparison, error) {
	out := make([]Comparison, 0, 5)
	for _, proto := range Protocols() {
		m, err := Analyze(proto, p)
		if err != nil {
			return nil, fmt.Errorf("singlehop: comparing %v: %w", proto, err)
		}
		out = append(out, Comparison{Protocol: proto, Metrics: m})
	}
	return out, nil
}

// BestProtocol returns the protocol minimizing the integrated cost
// C = α·I + Λ at p — the decision question the paper's cost model is
// built to answer — and that cost.
func BestProtocol(alpha float64, p Params) (Protocol, float64, error) {
	cmp, err := Compare(p)
	if err != nil {
		return 0, 0, err
	}
	best := cmp[0].Protocol
	bestCost := IntegratedCost(alpha, cmp[0].Metrics)
	for _, c := range cmp[1:] {
		if cost := IntegratedCost(alpha, c.Metrics); cost < bestCost {
			best, bestCost = c.Protocol, cost
		}
	}
	return best, bestCost, nil
}
