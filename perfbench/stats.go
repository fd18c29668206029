package main

import (
	"math"
	"sort"
)

// median of vals (0 for none).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the default "exclusive"
// method), so the benchmark's spread agrees with a check written in
// Python. It needs at least two values; with fewer every cut is the value
// itself (or 0).
func quartiles(vals []float64) [3]float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance of vals as a share of their median.
func spread(vals []float64) float64 {
	q := quartiles(vals)
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / q[1]
}

// rate is work per second of event-loop time (0 when no loop time was
// measured).
func rate(work, loopS float64) float64 {
	if loopS <= 0 {
		return 0
	}
	return work / loopS
}

// overheadFrac is how much longer a pass took than the baseline, as a
// fraction of the baseline (0 without a baseline).
func overheadFrac(wallS, baseS float64) float64 {
	if baseS <= 0 {
		return 0
	}
	return wallS/baseS - 1
}

// passEndToEnd computes one untraced pass's end-to-end metrics, with
// times normalized to the reference host's speed by h (calib.go). The
// rates divide work by event-loop CPU time.
func passEndToEnd(p passResult, h hostSpeed) map[string]float64 {
	var setup, loop, flowSec float64
	var events uint64
	for _, r := range p.Scenarios {
		setup += r.SetupS
		loop += r.LoopCPUS
		flowSec += r.FlowSec
		events += r.Events
	}
	loop /= h.cpu
	return map[string]float64{
		"wall_s":        p.WallS / h.wall,
		"cpu_s":         p.CPUS / h.cpu,
		"setup_s":       setup / h.wall,
		"mevents_per_s": rate(float64(events), loop) / 1e6,
		"flowsec_per_s": rate(flowSec, loop),
		"peak_rss_mb":   p.PeakRSSMB,
	}
}

// endToEndNames lists the end-to-end metrics with their units, in report
// order.
var endToEndNames = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"mevents_per_s", "Mevents/s"},
	{"flowsec_per_s", "flow-s/s"},
	{"peak_rss_mb", "MB"},
}

// endToEnd reports each end-to-end metric as its median over the untraced
// passes, normalized by h. Each pass does the same fixed work, so no metric
// depends on how many passes ran.
func endToEnd(passes []passResult, h hostSpeed) map[string]float64 {
	per := make(map[string][]float64)
	for _, p := range passes {
		for k, v := range passEndToEnd(p, h) {
			per[k] = append(per[k], v)
		}
	}
	out := make(map[string]float64, len(per))
	for k, vals := range per {
		out[k] = median(vals)
	}
	return out
}
