// Package stats provides the estimators the simulation harness reports:
// online mean/variance (Welford), Student-t 95% confidence intervals, and
// time-weighted binary fractions (the inconsistency ratio is the fraction
// of session time with mismatched state, which must be accumulated against
// the virtual clock rather than per-sample).
package stats

import "math"

// Mean is an online mean/variance accumulator using Welford's algorithm.
// The zero value is ready to use.
type Mean struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 with no observations).
func (m *Mean) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

// StdErr returns the standard error of the mean.
func (m *Mean) StdErr() float64 {
	if m.n == 0 {
		return 0
	}
	return m.StdDev() / math.Sqrt(float64(m.n))
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// using the Student-t quantile for the current sample size.
func (m *Mean) CI95() float64 {
	if m.n < 2 {
		return 0
	}
	return tQuantile95(m.n-1) * m.StdErr()
}

// tQuantile95 returns the two-sided 95% Student-t quantile for df degrees
// of freedom. Values for small df are tabulated; beyond the table the
// normal quantile 1.96 is a sufficient approximation (error < 0.3%).
func tQuantile95(df int) float64 {
	table := []float64{
		0,                                                             // df=0 unused
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 40:
		return 2.030
	case df < 60:
		return 2.009
	case df < 120:
		return 1.990
	default:
		return 1.960
	}
}

// Fraction accumulates a time-weighted binary signal: call Observe at each
// instant the signal's value is (re)asserted and Finish at the end of the
// observation window. Value reports accumulated_true_time/total_time.
type Fraction struct {
	started   bool
	lastTime  float64
	lastValue bool
	trueTime  float64
	total     float64
}

// Observe records that the signal has value v from time t onward. Times
// must be non-decreasing; a regressing time panics because it means the
// simulation clock was misused.
func (f *Fraction) Observe(t float64, v bool) {
	if f.started {
		if t < f.lastTime {
			panic("stats: Fraction.Observe time went backwards")
		}
		dt := t - f.lastTime
		f.total += dt
		if f.lastValue {
			f.trueTime += dt
		}
	}
	f.started = true
	f.lastTime = t
	f.lastValue = v
}

// Finish closes the window at time t, accounting for the final segment.
func (f *Fraction) Finish(t float64) {
	if !f.started {
		return
	}
	f.Observe(t, f.lastValue)
}

// Value returns the fraction of elapsed time the signal was true.
func (f *Fraction) Value() float64 {
	if f.total == 0 {
		return 0
	}
	return f.trueTime / f.total
}

// TrueTime returns the accumulated time with the signal true.
func (f *Fraction) TrueTime() float64 { return f.trueTime }
