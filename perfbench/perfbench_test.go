package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Fatalf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	// Expected values are Python's statistics.quantiles(vals, n=4).
	cases := []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		got := quartiles(c.vals)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestRateArithmetic(t *testing.T) {
	if got := rate(100, 4); got != 25 {
		t.Errorf("rate = %v", got)
	}
	if got := rate(100, 0); got != 0 {
		t.Errorf("rate with no loop time = %v, want 0", got)
	}
	p := passResult{WallS: 10, CPUS: 8, PeakRSSMB: 50, Scenarios: []scenarioRun{
		{SetupS: 0.5, LoopCPUS: 2, Events: 3e6, FlowSec: 100},
		{SetupS: 1.5, LoopCPUS: 4, Events: 9e6, FlowSec: 500},
	}}
	m := passEndToEnd(p, hostSpeed{1, 1})
	want := map[string]float64{
		"wall_s": 10, "cpu_s": 8, "setup_s": 2,
		"mevents_per_s": 12e6 / 6 / 1e6, "flowsec_per_s": 600.0 / 6, "peak_rss_mb": 50,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if len(m) != len(endToEndNames) {
		t.Errorf("pass reports %d metrics, want %d", len(m), len(endToEndNames))
	}

	// On a host running at half the reference speed every time halves
	// and every rate doubles; memory is untouched.
	slow := passEndToEnd(p, hostSpeed{cpu: 2, wall: 4})
	for k, f := range map[string]float64{"wall_s": 0.25, "cpu_s": 0.5, "setup_s": 0.25, "mevents_per_s": 2, "flowsec_per_s": 2, "peak_rss_mb": 1} {
		if !near(slow[k], m[k]*f) {
			t.Errorf("normalized %s = %v, want %v", k, slow[k], m[k]*f)
		}
	}
}

func TestCalibration(t *testing.T) {
	for n, want := range map[int][]int{
		1:   {4, 4},
		4:   {2, 2, 1, 2, 1},
		8:   {1, 1, 1, 1, 1, 1, 1, 1, 0},
		240: nil,
	} {
		got := calibSlots(n)
		if len(got) != n+1 {
			t.Fatalf("calibSlots(%d) has %d gaps", n, len(got))
		}
		total := 0
		for _, c := range got {
			total += c
		}
		if total != calibRuns {
			t.Errorf("calibSlots(%d) places %d runs, want %d", n, total, calibRuns)
		}
		if want != nil {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("calibSlots(%d) = %v, want %v", n, got, want)
					break
				}
			}
		}
	}
	passes := []passResult{
		{CalibCPUS: []float64{calibRefS, 3 * calibRefS}, CalibWallS: []float64{4 * calibRefS}},
		{CalibCPUS: []float64{2 * calibRefS}, CalibWallS: []float64{4 * calibRefS}},
	}
	if got := speedOf(passes); !near(got.cpu, 2) || !near(got.wall, 4) {
		t.Errorf("speedOf = %+v, want cpu 2, wall 4", got)
	}
	if got := speedOf(nil); got != (hostSpeed{1, 1}) {
		t.Errorf("speedOf without samples = %+v, want 1, 1", got)
	}
	if c, w := timeKernel(); c <= 0 || w <= 0 {
		t.Errorf("timeKernel = %v, %v", c, w)
	}
}

func TestCheckRunsFailFrac(t *testing.T) {
	ok := func(key, digest string) scenarioRun { return scenarioRun{Key: key, Digest: digest} }
	passes := []passResult{
		{Mode: modeUntraced, Scenarios: []scenarioRun{ok("a", "1"), ok("b", "2")}},
		{Mode: modeUntraced, Scenarios: []scenarioRun{ok("a", "1"), ok("b", "9")}},
		{Mode: modeChecked, Scenarios: []scenarioRun{
			{Key: "a", Digest: "1", Violations: []string{"t=1s conservation"}},
			{Key: "b", Err: "boom"},
		}},
	}
	// Without references the first run of each scenario is the reference.
	attempted, failed, notes := checkRuns(passes, nil)
	if attempted != 6 || failed != 3 || len(notes) != 3 {
		t.Fatalf("no refs: attempted %d failed %d notes %v; want 6, 3", attempted, failed, notes)
	}
	if !strings.Contains(notes[0], "output digest 9") {
		t.Errorf("first note %q, want the second pass's digest 9 flagged", notes[0])
	}
	// With references every run compares against them: now the first
	// pass's digest 2 is the wrong one.
	attempted, failed, notes = checkRuns(passes, map[string]string{"a": "1", "b": "9", "c": "3"})
	if attempted != 6 || failed != 3 || !strings.Contains(notes[0], "output digest 2") {
		t.Fatalf("refs: attempted %d failed %d notes %v; want 6, 3, digest 2 flagged", attempted, failed, notes)
	}
}

func TestRefsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if got, err := loadRefs(dir, "w"); err != nil || len(got) != 0 {
		t.Fatalf("missing file: %v, %v", got, err)
	}
	if err := saveRefs(dir, "w", map[string]string{"a/s=1": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := saveRefs(dir, "w", map[string]string{"a/s=2": "y"}); err != nil {
		t.Fatal(err)
	}
	got, err := loadRefs(dir, "w")
	if err != nil || got["a/s=1"] != "x" || got["a/s=2"] != "y" {
		t.Fatalf("refs = %v, %v", got, err)
	}
}

func TestWatchHorizon(t *testing.T) {
	t.Run("published", func(t *testing.T) {
		p := &obs.Progress{}
		wait := watchHorizon(p)
		time.Sleep(5 * time.Millisecond)
		before := time.Now()
		p.SetHorizon(time.Second)
		time.Sleep(20 * time.Millisecond)
		got, ok := wait()
		if !ok {
			t.Fatal("watcher missed the horizon")
		}
		if got.wall.Before(before) || got.wall.Sub(before) > 15*time.Millisecond {
			t.Fatalf("boundary %v after publication, want within 15ms", got.wall.Sub(before))
		}
	})
	t.Run("never", func(t *testing.T) {
		wait := watchHorizon(&obs.Progress{})
		time.Sleep(2 * time.Millisecond)
		if _, ok := wait(); ok {
			t.Fatal("watcher reported a horizon that was never published")
		}
	})
	t.Run("late wake", func(t *testing.T) {
		// Published and stopped before the watcher looked again: it still
		// reports the horizon, at the stop.
		p := &obs.Progress{}
		wait := watchHorizon(p)
		p.SetHorizon(time.Second)
		if _, ok := wait(); !ok {
			t.Fatal("watcher dropped a horizon published before the stop")
		}
	})
}

func TestFlowSeconds(t *testing.T) {
	sc := experiments.Fig3Scenario(1)
	// 15 flows for 750s, 5 flows for 250s.
	if got, want := flowSeconds(sc), 15*750.0+5*250.0; got != want {
		t.Errorf("fig3 flow-seconds = %v, want %v", got, want)
	}
	sc = experiments.Fig5Scenario(1)
	if got, want := flowSeconds(sc), 10*80.0; got != want {
		t.Errorf("fig5 flow-seconds = %v, want %v", got, want)
	}
}

func TestLayerMetricsAggregation(t *testing.T) {
	traced := passResult{Scenarios: []scenarioRun{
		{TopogenS: 1, BuildS: 2, RenderS: 0.5, TraceBytes: 10, Layers: map[string]float64{
			"flowsim.solve_incr.count": 10, "flowsim.solve_incr.s": 1, "flowsim.solve_incr.p99_s": 0.2,
			"flowsim.flows_touched": 100, "sim.loop_s": 2, "sim.events": 4e9,
		}},
		{TopogenS: 2, BuildS: 1, RenderS: 0.5, TraceBytes: 5, Layers: map[string]float64{
			"flowsim.solve_incr.count": 30, "flowsim.solve_full.count": 10, "flowsim.solve_incr.p99_s": 0.5,
			"flowsim.flows_touched": 400,
		}},
	}}
	m := layerMetrics(traced, []passResult{{}}, passResult{})
	checks := map[string]float64{
		"topogen.generate_s": 3, "experiments.build_s": 3, "trace.write_s": 1, "trace.bytes": 15,
		"flowsim.solve_incr.count": 40, "flowsim.solve_incr.p99_s": 0.5,
		"flowsim.touched_per_solve": 500.0 / 50, "sim.ns_per_event": 0.5,
	}
	for k, v := range checks {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	for _, name := range perLayerNames() {
		if _, ok := m[name]; !ok {
			t.Errorf("per-layer metric %s missing from the report", name)
		}
	}
	for name := range m {
		if perLayerUnit(name) == "" {
			t.Errorf("%s has no unit", name)
		}
	}
}

// Splitting generation out of the program must not change what the
// program computes: the benchmark's expanded scenario renders the same
// CSVs as the scenario layer's own Generate path.
func TestExpandMatchesGenerate(t *testing.T) {
	sc := experiments.ChurnTailScenario(experiments.SchemeCSFQ, 3)
	sc.Backend = experiments.BackendFlow
	want := runDigest(t, sc)

	var r scenarioRun
	expanded, err := expand(sc, &r, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if expanded.Generate != nil || expanded.Spec == nil {
		t.Fatal("expand left the Generate block in place")
	}
	if got := runDigest(t, expanded); got != want {
		t.Fatalf("expanded digest %.12s, Generate path %.12s", got, want)
	}
}

func runDigest(t *testing.T, sc experiments.Scenario) string {
	t.Helper()
	res, err := experiments.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := renderDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Two passes over the same workload and seed render identical outputs,
// and an untraced, a traced and a checked pass agree with each other.
func TestDigestStableAcrossPasses(t *testing.T) {
	w := workload{
		name: "test",
		scenarios: func(seed int64) ([]experiments.Scenario, error) {
			a := experiments.Fig5Scenario(seed)
			b := experiments.ChurnTailScenario(experiments.SchemeCorelite, seed)
			b.Backend = experiments.BackendFlow
			return []experiments.Scenario{a, b}, nil
		},
		checkTol: experiments.FigureFairnessTol,
		oracle:   true,
	}
	var passes []passResult
	for _, mode := range []string{modeUntraced, modeUntraced, modeTraced, modeChecked} {
		p, err := runPass(w, 1, mode)
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, p)
	}
	attempted, failed, notes := checkRuns(passes, nil)
	if attempted != 8 || failed != 0 {
		t.Fatalf("attempted %d failed %d: %v", attempted, failed, notes)
	}
	traced := passes[2]
	if len(traced.Spans) == 0 {
		t.Fatal("traced pass recorded no spans")
	}
	for _, s := range traced.Spans {
		if s.EndS < s.StartS || s.Run != traced.Spans[0].Run {
			t.Fatalf("bad span %+v", s)
		}
	}
	if traced.Scenarios[0].Layers["netem.link-tx.events"] == 0 {
		t.Error("packet scenario: profiler counted no link-tx events")
	}
	if traced.Scenarios[1].Layers["flowsim.solve_full.count"] == 0 {
		t.Error("small fluid scenario: no monolithic solves recorded")
	}
	if passes[3].Scenarios[0].Checks == 0 {
		t.Error("checked pass ran no invariant checks")
	}
	for _, r := range passes[0].Scenarios {
		if r.SetupS <= 0 || r.LoopCPUS <= 0 || r.Events == 0 {
			t.Errorf("%s: setup %v loop %v events %d", r.Key, r.SetupS, r.LoopCPUS, r.Events)
		}
	}
}

func TestWorkloadScenarios(t *testing.T) {
	counts := map[string]int{"paper-packet": 8, "atscale-packet": 4, "fattree-fluid": fabricRuns, "figures-fluid": 12 * figuresFluidReps}
	for _, w := range workloads() {
		scs, err := w.scenarios(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(scs) != counts[w.name] {
			t.Errorf("%s: %d scenarios, want %d", w.name, len(scs), counts[w.name])
		}
		again, _ := w.scenarios(7)
		other, _ := w.scenarios(8)
		if scenarioKey(again[0]) != scenarioKey(scs[0]) {
			t.Errorf("%s: scenarios not a function of the seed", w.name)
		}
		// Only the generated fabrics follow the workload seed; the figures
		// stay at the seed the repository pins them at.
		if differ := scenarioKey(other[0]) != scenarioKey(scs[0]); differ != (w.name == "fattree-fluid") {
			t.Errorf("%s: seed 8 changes the scenarios: %v", w.name, differ)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(spec.EndToEnd), len(endToEndNames))
	}
	for i, m := range endToEndNames {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, printed %s %s", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	layers := perLayerNames()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(spec.PerLayer), len(layers))
	}
	for i, name := range layers {
		if spec.PerLayer[i].Name != name || spec.PerLayer[i].Unit != perLayerUnit(name) {
			t.Errorf("per_layer[%d] = %+v, printed %s %s", i, spec.PerLayer[i], name, perLayerUnit(name))
		}
	}
}
