package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/trace"
)

// Pass modes. Every mode runs the same scenarios and must render the same
// CSVs; they differ only in what rides along.
const (
	modeUntraced = "untraced" // nothing attached: the timed passes
	modeTraced   = "traced"   // obs registry + spans: the per-layer pass
	modeChecked  = "checked"  // invariant checker: the correctness pass
)

// scenarioRun is one scenario's outcome within a pass. Times are host
// seconds.
type scenarioRun struct {
	Key string `json:"key"`
	Err string `json:"err,omitempty"`
	// WallS and CPUS run from the generators to the end of rendering;
	// CPUS is process CPU time over all threads.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// SetupS is the wall time before the event loop (generators,
	// validation, model build); LoopCPUS the process CPU time from there
	// until the run returns. Set-up is timed on the wall clock because it
	// can be a fraction of a millisecond, while the kernel brings the CPU
	// time of a thread running on another core up to date only at its
	// next tick or context switch.
	SetupS     float64  `json:"setup_s"`
	LoopCPUS   float64  `json:"loop_cpu_s"`
	Digest     string   `json:"digest,omitempty"`
	Violations []string `json:"violations,omitempty"`
	Checks     int64    `json:"checks,omitempty"`
	// The remaining times are wall seconds. TopogenS, TrafficgenS and
	// ValidateS time the benchmark's own calls into the generators and the
	// spec validator.
	TopogenS    float64 `json:"topogen_s"`
	TrafficgenS float64 `json:"trafficgen_s"`
	ValidateS   float64 `json:"validate_s"`
	// BuildS runs from the call into the pool until the engine publishes
	// its horizon on Scenario.Progress (end of model build); LoopS from
	// there until the pool returns.
	BuildS     float64 `json:"build_s"`
	LoopS      float64 `json:"loop_s"`
	RenderS    float64 `json:"render_s"`
	OracleS    float64 `json:"oracle_s,omitempty"`
	Events     uint64  `json:"events"`
	FlowSec    float64 `json:"flow_sec"`
	TraceBytes int64   `json:"trace_bytes"`
	// Layers holds the traced pass's per-layer readings (see layers.go).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// goStats are Go runtime totals over one pass's scenarios.
type goStats struct {
	AllocMB  float64 `json:"alloc_mb"`
	Mallocs  float64 `json:"mallocs"`
	GCCycles float64 `json:"gc_cycles"`
	GCCPUS   float64 `json:"gc_cpu_s"`
}

// passResult is what one child process reports for one pass over a
// workload.
type passResult struct {
	Mode  string  `json:"mode"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// CalibCPUS and CalibWallS are the calibration kernel's times, one
	// per run spread over the pass (calib.go).
	CalibCPUS  []float64     `json:"calib_cpu_s"`
	CalibWallS []float64     `json:"calib_wall_s"`
	PeakRSSMB  float64       `json:"peak_rss_mb"`
	Go         goStats       `json:"go"`
	Scenarios  []scenarioRun `json:"scenarios"`
	Spans      []span        `json:"spans,omitempty"`
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoMetrics() []float64 {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// runPass runs every scenario of w once, one at a time, in the given mode.
func runPass(w workload, seed int64, mode string) (passResult, error) {
	scs, err := w.scenarios(seed)
	if err != nil {
		return passResult{}, err
	}
	var tr *tracer
	if mode == modeTraced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano()))
	}
	pool := run.New(run.Config{Workers: 1})
	res := passResult{Mode: mode}
	calibrate := func(n int) {
		if n == 0 {
			return
		}
		// Time the kernel on a collected heap, so that no collection of a
		// scenario's garbage lands in it.
		runtime.GC()
		for i := 0; i < n; i++ {
			c, w := timeKernel()
			res.CalibCPUS = append(res.CalibCPUS, c)
			res.CalibWallS = append(res.CalibWallS, w)
		}
	}
	calibKernel() // warm up: the first run in a fresh process pays its page faults
	slots := calibSlots(len(scs))
	root := tr.begin("workload:"+w.name, 0)
	for i, sc := range scs {
		calibrate(slots[i])
		// Start every scenario on a collected heap, so that neither the
		// previous scenario's garbage nor a collection it left running
		// lands in this scenario's times.
		runtime.GC()
		before := readGoMetrics()
		r := runScenario(pool, w, sc, mode, tr, root)
		after := readGoMetrics()
		res.Go.AllocMB += (after[0] - before[0]) / (1 << 20)
		res.Go.Mallocs += after[1] - before[1]
		res.Go.GCCycles += after[2] - before[2]
		res.Go.GCCPUS += after[3] - before[3]
		res.WallS += r.WallS
		res.CPUS += r.CPUS
		res.Scenarios = append(res.Scenarios, r)
	}
	calibrate(slots[len(scs)])
	tr.end(root)
	res.PeakRSSMB = peakRSSMB()
	if tr != nil {
		res.Spans = tr.spans
	}
	return res, nil
}

// peakRSSMB is this process's peak resident set. Each pass runs in its own
// process, so one pass's peak never carries into the next.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp is one reading at a boundary: the wall clock and this process's
// CPU time over all threads. The host's hypervisor steals the CPU for
// bursts that add up to ~10% to a pass's wall time and little to its CPU
// time, so cpu_s and the rates are taken in CPU time.
type stamp struct {
	wall time.Time
	cpu  float64
}

func now() stamp {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return stamp{wall: time.Now(), cpu: cpu.Seconds()}
}

// wallSince and cpuSince are the seconds from a to s.
func (s stamp) wallSince(a stamp) float64 { return s.wall.Sub(a.wall).Seconds() }
func (s stamp) cpuSince(a stamp) float64  { return s.cpu - a.cpu }

// runScenario generates, runs and renders one scenario.
func runScenario(pool *run.Pool, w workload, sc experiments.Scenario, mode string, tr *tracer, parent int) scenarioRun {
	r := scenarioRun{Key: scenarioKey(sc)}
	span := tr.begin("scenario:"+r.Key, parent)
	defer tr.end(span)
	start := now()

	sc, err := expand(sc, &r, tr, span)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.FlowSec = flowSeconds(sc)

	var reg *obs.Registry
	switch mode {
	case modeTraced:
		reg = obs.NewRegistry()
		sc.Obs = reg
		// No gauge time series: at 50k flows it would dominate memory,
		// and counters, histograms and the loop profiler need none.
		sc.ObsSample = -1
	case modeChecked:
		sc.Check = invariant.New(invariant.Config{FairnessTol: w.checkTol(sc.Name)})
	}
	prog := &obs.Progress{}
	sc.Progress = prog

	horizon := watchHorizon(prog)
	runSpan := tr.begin("run", span)
	t0 := now()
	results, err := pool.Execute(context.Background(), []run.Job{{Name: sc.Name, Scenario: sc}})
	t2 := now()
	t1, seen := horizon()
	tr.end(runSpan)
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if !seen {
		r.Err = "engine never published its horizon on Scenario.Progress"
		return r
	}
	if t1.wall.After(t2.wall) {
		t1 = t2
	}
	tr.add("setup", runSpan, t0.wall, t1.wall)
	tr.add("loop", runSpan, t1.wall, t2.wall)
	r.BuildS = t1.wallSince(t0)
	r.LoopS = t2.wallSince(t1)
	r.SetupS = t1.wallSince(start)
	r.LoopCPUS = t2.cpuSince(t1)
	out := results[0].Output
	r.Events = out.Events
	for _, v := range out.Violations {
		r.Violations = append(r.Violations, v.String())
	}
	r.Checks = out.InvariantChecks

	rs := tr.begin("render", span)
	t3 := time.Now()
	digest, n, err := renderDigest(out)
	end := now()
	r.RenderS = end.wall.Sub(t3).Seconds()
	r.WallS = end.wallSince(start)
	r.CPUS = end.cpuSince(start)
	tr.end(rs)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Digest, r.TraceBytes = digest, n

	if reg != nil {
		r.Layers = readLayers(reg, sc.Backend == experiments.BackendFlow, out.Events, r.LoopS)
		if w.oracle {
			// The oracle over the final sample window's active set: the
			// per-phase expected rates the figures are judged against.
			win := sc.SampleWindow
			if win <= 0 {
				win = time.Second
			}
			oracleSpan := tr.begin("oracle", span)
			t5 := time.Now()
			_, err := experiments.ExpectedRatesAt(sc, sc.Duration-win)
			r.OracleS = time.Since(t5).Seconds()
			tr.end(oracleSpan)
			if err != nil {
				r.Err = fmt.Sprintf("oracle: %v", err)
			}
		}
	}
	return r
}

// horizonPoll is how often the set-up watcher looks at the progress
// tracker. It sleeps in nanosleep directly: the Go timer would round the
// sleep up to about a millisecond on the 2-vCPU VM the bounds were set on,
// while nanosleep wakes within ~0.1 ms at a few percent of one core.
const horizonPoll = 50 * time.Microsecond

// watchHorizon reports when the engine publishes its horizon on p, which
// both engines do at the end of model build. The returned function stops
// the watcher and yields the boundary reading, or false when the engine
// never published a horizon. The watcher is running before watchHorizon
// returns and exits as soon as it sees the horizon. If it wakes only after
// the run has ended, it reports that instant, which the caller clamps to
// the run's end.
func watchHorizon(p *obs.Progress) func() (stamp, bool) {
	stop := make(chan struct{})
	started := make(chan struct{})
	seen := make(chan stamp, 1)
	go func() {
		close(started)
		pause := syscall.NsecToTimespec(int64(horizonPoll))
		for {
			if p.Snapshot().Horizon != 0 {
				seen <- now()
				return
			}
			select {
			case <-stop:
				if p.Snapshot().Horizon != 0 {
					seen <- now()
				}
				close(seen)
				return
			default:
				_ = syscall.Nanosleep(&pause, nil) // an early wake only means an early look
			}
		}
	}()
	<-started
	return func() (stamp, bool) {
		close(stop)
		t, ok := <-seen
		return t, ok
	}
}

// expand runs a generated scenario's topology and traffic generators and
// the spec validator from the benchmark, exactly as scenario normalization
// would, so the program receives only the generated scenario.
func expand(sc experiments.Scenario, r *scenarioRun, tr *tracer, parent int) (experiments.Scenario, error) {
	g := sc.Generate
	if g == nil {
		return sc, nil
	}
	span := tr.begin("generate", parent)
	t0 := time.Now()
	spec, err := g.Topo.Generate(sc.Seed)
	t1 := time.Now()
	tr.add("topogen", span, t0, t1)
	r.TopogenS = t1.Sub(t0).Seconds()
	if err != nil {
		tr.end(span)
		return sc, fmt.Errorf("topogen: %w", err)
	}
	if g.Traffic != nil {
		cfg := *g.Traffic
		if cfg.Horizon == 0 {
			cfg.Horizon = sc.Duration
		}
		wl, err := cfg.Generate(sc.Seed, len(spec.Flows))
		if err != nil {
			tr.end(span)
			return sc, fmt.Errorf("trafficgen: %w", err)
		}
		for i := range spec.Flows {
			if w, ok := wl.Weights[spec.Flows[i].Index]; ok {
				spec.Flows[i].Weight = w
			}
		}
		// Explicit scenario entries override generated ones.
		if len(wl.Schedules) > 0 {
			for idx, s := range sc.Schedules {
				wl.Schedules[idx] = s
			}
			sc.Schedules = wl.Schedules
		}
		if len(wl.Unresponsive) > 0 {
			for idx, u := range sc.Unresponsive {
				wl.Unresponsive[idx] = u
			}
			sc.Unresponsive = wl.Unresponsive
		}
		t2 := time.Now()
		tr.add("trafficgen", span, t1, t2)
		r.TrafficgenS = t2.Sub(t1).Seconds()
	}
	tr.end(span)
	vs := tr.begin("validate", parent)
	t3 := time.Now()
	err = spec.Validate()
	r.ValidateS = time.Since(t3).Seconds()
	tr.end(vs)
	if err != nil {
		return sc, fmt.Errorf("topospec: %w", err)
	}
	sc.Spec = spec
	sc.Generate = nil
	return sc, nil
}

// flowSeconds is the simulated flow-seconds the scenario asks for: each
// flow's active time within the horizon, summed. It is a pure function of
// the scenario, so it is the same on both engines.
func flowSeconds(sc experiments.Scenario) float64 {
	var idx []int
	if sc.Spec != nil {
		for _, f := range sc.Spec.Flows {
			idx = append(idx, f.Index)
		}
	} else {
		for i := 1; i <= sc.NumFlows; i++ {
			idx = append(idx, i)
		}
	}
	var total time.Duration
	for _, i := range idx {
		s, ok := sc.Schedules[i]
		if !ok {
			total += sc.Duration // no schedule: active for the whole run
			continue
		}
		for _, iv := range s {
			stop := iv.Stop
			if stop == 0 || stop > sc.Duration {
				stop = sc.Duration
			}
			if iv.Start < stop {
				total += stop - iv.Start
			}
		}
	}
	return total.Seconds()
}

// countingHash is a SHA-256 that also counts the bytes written to it.
type countingHash struct {
	hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.Hash.Write(p)
}

// renderDigest renders the allowed, received and cumulative CSVs of a
// result into one SHA-256, the way cmd/figures would write them to disk.
func renderDigest(res *experiments.Result) (string, int64, error) {
	h := &countingHash{Hash: sha256.New()}
	for _, k := range []trace.SeriesKind{trace.SeriesAllowed, trace.SeriesReceived, trace.SeriesCumulative} {
		if err := trace.WriteCSV(h, res, k); err != nil {
			return "", 0, err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), h.n, nil
}
