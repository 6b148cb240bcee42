package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of retained measurements. Percentiles are computed
// from the values themselves (nearest rank), never from histogram
// buckets, so a 10% shift in a median is resolvable.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

// pct returns the nearest-rank p-quantile (0 < p ≤ 1) and the number of
// samples strictly beyond it. An empty set yields NaN.
func (s samples) pct(p float64) (v float64, beyond int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	v = sorted[rank]
	i := sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
	return v, len(sorted) - i
}

func (s samples) median() float64 {
	v, _ := s.pct(0.5)
	return v
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// metric is one reported figure with its unit and the evidence behind
// it: the sample count and, for percentiles, how many samples lie beyond.
type metric struct {
	Name   string
	Value  float64
	Unit   string
	N      int
	Beyond int    // -1 when the value is not a percentile
	Note   string // why a per-layer metric does not apply, when it does not
	// Info marks a figure that is printed but left out of the JSON result:
	// its run-to-run spread is too wide to gate a change on.
	Info bool
}

type report struct {
	metrics []metric
}

func (r *report) set(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n, Beyond: -1})
}

func (r *report) pct(name, unit string, s samples, p float64) {
	v, beyond := s.pct(p)
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: len(s), Beyond: beyond})
}

// segPct records the median of per-segment percentiles, with the count
// of pooled samples and of pooled samples beyond the median.
func (r *report) segPct(name, unit string, segs, pooled samples) {
	v := segs.median()
	beyond := 0
	for _, x := range pooled {
		if x > v {
			beyond++
		}
	}
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: len(pooled), Beyond: beyond})
}

// na records a per-layer metric that has no meaning on the workload,
// with the reason; its value is reported as 0.
func (r *report) na(name, unit, why string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Beyond: -1, Note: why})
}

// info marks the last recorded metric as informational.
func (r *report) info() { r.metrics[len(r.metrics)-1].Info = true }

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (m metric) String() string {
	if m.Note != "" {
		return fmt.Sprintf("%-30s n/a  %s", m.Name, m.Note)
	}
	s := fmt.Sprintf("%-30s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
	if m.Beyond >= 0 {
		s += fmt.Sprintf(" beyond=%d", m.Beyond)
	}
	if m.Info {
		s += " (not gated)"
	}
	return s
}

// ratio divides, returning 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
