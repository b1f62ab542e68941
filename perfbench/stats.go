package main

import (
	"fmt"
	"regexp"
	"sort"
	"time"
)

// dist is a sample of one timing or size, kept whole so any
// percentile can be read off it together with its sample count.
type dist struct {
	xs []float64
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) addDur(t time.Duration, unit time.Duration) {
	d.add(float64(t) / float64(unit))
}

func (d *dist) n() int { return len(d.xs) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the two nearest ranks, the definition NumPy uses by default.
// An empty sample reads 0.
func (d *dist) quantile(q float64) float64 {
	return quantile(d.xs, q)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of the standard tail percentiles that
// still has at least ten samples beyond it, so the tail it reports is
// measured rather than extrapolated. It returns q = 0.5 when the sample
// is too small for any tail.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if float64(n)*(1-q) >= 10-1e-9 { // tolerate 1-q's rounding
			return q
		}
	}
	return 0.5
}

// summary renders a distribution as its median and measurable tail,
// with the sample count.
func (d *dist) summary(unit string) string {
	q := tailQuantile(d.n())
	if q == 0.5 {
		return fmt.Sprintf("p50 %.4g %s (n=%d)", d.quantile(0.5), unit, d.n())
	}
	return fmt.Sprintf("p50 %.4g %s, p%g %.4g %s (n=%d)",
		d.quantile(0.5), unit, q*100, d.quantile(q), unit, d.n())
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric's name and unit are in the
// character sets and lengths the benchmark's result format allows.
func validMetric(name, unit string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of letters, digits, _ . -", name)
	}
	if !metricUnitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q: want 1-16 of letters, digits, _ / %% . -", name, unit)
	}
	return nil
}
