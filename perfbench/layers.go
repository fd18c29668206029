package main

import (
	"strings"

	"repro/internal/obs"
)

// profilerLayers maps the packet engine's event-loop profiler kinds to the
// layer that owns their handlers.
var profilerLayers = map[string]string{
	"link-tx":   "netem.link-tx",
	"link-prop": "netem.link-prop",
	"source":    "workload.source",
	"control":   "core.control",
	"measure":   "metrics.measure",
	"other":     "sim.other",
}

// profilerOrder lists the profiler layers in report order.
var profilerOrder = []string{
	"netem.link-tx", "netem.link-prop", "workload.source",
	"core.control", "metrics.measure", "sim.other",
}

// perLayerNames is every per-layer metric, in report order. Each is
// documented in METRICS.md.
func perLayerNames() []string {
	var names []string
	for _, l := range profilerOrder {
		names = append(names, l+".events", l+".self_s")
	}
	return append(names,
		"sim.queue_s", "sim.ns_per_event",
		"netem.drops", "core.feedback_sent", "core.congestion_epochs",
		"flowsim.solve_incr.count", "flowsim.solve_incr.s", "flowsim.solve_incr.p99_s",
		"flowsim.solve_full.count", "flowsim.solve_full.s",
		"flowsim.flows_touched", "flowsim.touched_per_solve",
		"flowsim.epochs", "flowsim.events", "flowsim.rest_s",
		"topogen.generate_s", "trafficgen.generate_s", "topospec.validate_s", "experiments.build_s",
		"maxmin.oracle_s",
		"trace.write_s", "trace.bytes",
		"go.alloc_mb", "go.mallocs", "go.gc_cycles", "go.gc_cpu_s",
		"obs.overhead_frac",
		"invariant.checks", "invariant.overhead_frac",
		"host.cpu_factor",
	)
}

// perLayerUnit gives each per-layer metric's unit by its name's suffix.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"), strings.HasSuffix(name, ".s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case name == "sim.ns_per_event":
		return "ns"
	case name == "go.alloc_mb":
		return "MB"
	case name == "trace.bytes":
		return "bytes"
	case name == "flowsim.touched_per_solve":
		return "flows"
	case name == "host.cpu_factor":
		return "ratio"
	default:
		return "count"
	}
}

// readLayers reads one traced scenario's registry: the loop profiler's
// per-kind counts and self times (packet engine), the control-plane
// counters, and the fluid engine's solve histograms and counters. loopS is
// the scenario's event-loop host time.
func readLayers(reg *obs.Registry, flow bool, events uint64, loopS float64) map[string]float64 {
	m := make(map[string]float64)
	var self float64
	for _, p := range reg.Perf() {
		l, ok := profilerLayers[p.Kind]
		if !ok {
			l = "sim.other"
		}
		m[l+".events"] += float64(p.Events)
		m[l+".self_s"] += p.WallSeconds
		self += p.WallSeconds
	}
	if len(reg.Perf()) > 0 {
		m["sim.queue_s"] = loopS - self
		m["sim.loop_s"] = loopS
		m["sim.events"] = float64(events)
	}
	sum := reg.Summary()
	m["netem.drops"] = float64(sum.Drops)
	m["core.feedback_sent"] = float64(sum.FeedbackSent)
	m["core.congestion_epochs"] = float64(sum.CongestionEpochs)
	if !flow {
		return m
	}
	var solveS float64
	for _, h := range reg.Histograms() {
		switch h.Name() {
		case obs.HistSolveIncremental:
			m["flowsim.solve_incr.count"] = float64(h.Count())
			m["flowsim.solve_incr.s"] = h.Sum()
			m["flowsim.solve_incr.p99_s"] = h.Quantile(0.99)
			solveS += h.Sum()
		case obs.HistSolveFull:
			m["flowsim.solve_full.count"] = float64(h.Count())
			m["flowsim.solve_full.s"] = h.Sum()
			solveS += h.Sum()
		}
	}
	for _, c := range reg.Counters() {
		switch c.Name() {
		case obs.CtrSolveTouched:
			m["flowsim.flows_touched"] = float64(c.Value())
		case "fluid/epochs":
			m["flowsim.epochs"] = float64(c.Value())
		}
	}
	m["flowsim.events"] = float64(events)
	m["flowsim.rest_s"] = loopS - solveS
	return m
}

// layerMetrics assembles the per-layer report from the traced pass, the
// untraced passes (Go runtime totals and the overhead baseline) and the
// checked pass.
func layerMetrics(traced passResult, untraced []passResult, checked passResult) map[string]float64 {
	out := make(map[string]float64)
	for _, name := range perLayerNames() {
		out[name] = 0
	}
	sums := make(map[string]float64)
	for _, r := range traced.Scenarios {
		for k, v := range r.Layers {
			if k == "flowsim.solve_incr.p99_s" {
				// The worst scenario's tail, not a sum of tails.
				if v > sums[k] {
					sums[k] = v
				}
				continue
			}
			sums[k] += v
		}
		out["topogen.generate_s"] += r.TopogenS
		out["trafficgen.generate_s"] += r.TrafficgenS
		out["topospec.validate_s"] += r.ValidateS
		out["experiments.build_s"] += r.BuildS
		out["maxmin.oracle_s"] += r.OracleS
		out["trace.write_s"] += r.RenderS
		out["trace.bytes"] += float64(r.TraceBytes)
	}
	for k, v := range sums {
		if _, ok := out[k]; ok {
			out[k] = v
		}
	}
	if n := sums["sim.events"]; n > 0 {
		out["sim.ns_per_event"] = sums["sim.loop_s"] / n * 1e9
	}
	if n := sums["flowsim.solve_incr.count"] + sums["flowsim.solve_full.count"]; n > 0 {
		out["flowsim.touched_per_solve"] = sums["flowsim.flows_touched"] / n
	}
	pick := func(f func(passResult) float64) float64 {
		vals := make([]float64, len(untraced))
		for i, p := range untraced {
			vals[i] = f(p)
		}
		return median(vals)
	}
	out["go.alloc_mb"] = pick(func(p passResult) float64 { return p.Go.AllocMB })
	out["go.mallocs"] = pick(func(p passResult) float64 { return p.Go.Mallocs })
	out["go.gc_cycles"] = pick(func(p passResult) float64 { return p.Go.GCCycles })
	out["go.gc_cpu_s"] = pick(func(p passResult) float64 { return p.Go.GCCPUS })
	// Overheads compare CPU time normalized to the host's speed during
	// each pass (calib.go): the traced and checked passes run minutes
	// apart from the untraced ones.
	h := speedOf(untraced)
	out["host.cpu_factor"] = h.cpu
	base := pick(func(p passResult) float64 { return p.CPUS }) / h.cpu
	out["obs.overhead_frac"] = overheadFrac(traced.CPUS/speedOf([]passResult{traced}).cpu, base)
	out["invariant.overhead_frac"] = overheadFrac(checked.CPUS/speedOf([]passResult{checked}).cpu, base)
	for _, r := range checked.Scenarios {
		out["invariant.checks"] += float64(r.Checks)
	}
	return out
}
