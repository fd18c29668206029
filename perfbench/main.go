// Command perfbench is the repository's same-host benchmark. It runs one
// named workload of simulation scenarios through the public layer APIs
// (the topology and traffic generators, experiments.Run on a one-worker
// run.Pool, trace.WriteCSV), checks every output, and prints the metrics
// as one JSON line:
//
//	perfbench --workload paper-packet --seed 1 --seconds 20 --trace 0
//
// Each pass over the workload runs in a child process of its own, so one
// pass's heap and peak memory never carry into the next. An invocation
// makes one checked pass (invariant checker attached), then untraced
// passes for --seconds, reported as medians; with --trace 1 it adds one
// traced pass and reports per-layer metrics instead. METRICS.md defines
// every metric and workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outdir   string
	regen    bool
	child    string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-packet, atscale-packet, fattree-fluid or figures-fluid")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the generated fabric workload is derived from it")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the untraced passes run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.outdir, "outdir", "perfbench-out", "directory for the traced pass's spans")
	fs.BoolVar(&o.regen, "regen-refs", false, "record this workload and seed's output digests as the reference, then exit")
	fs.StringVar(&o.child, "child", "", "internal: run one pass in this mode and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, err := findWorkload(o.workload); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	return o, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, _ := findWorkload(o.workload)
	if o.child != "" {
		res, err := runPass(w, o.seed, o.child)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.regen {
		err = regenerate(o, stderr)
	} else {
		err = bench(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// childProcs is the GOMAXPROCS every pass runs with: two cores, as on the
// VM the bounds were set on, or fewer where there are fewer.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runChild runs one pass in a fresh process and decodes its report.
func runChild(o options, mode string, stderr io.Writer) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	// A pass must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", mode, err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return passResult{}, fmt.Errorf("%s pass: decode report: %w", mode, err)
	}
	return res, nil
}

// result is the benchmark's one-line report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func bench(o options, stdout, stderr io.Writer) error {
	refs, err := loadRefs(refsDir, o.workload)
	if err != nil {
		return err
	}
	checked, err := runChild(o, modeChecked, stderr)
	if err != nil {
		return err
	}
	// Untraced passes fill --seconds: another pass starts while the
	// expected end, at the mean pass time so far, is at most half a pass
	// past the budget.
	var untraced []passResult
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for {
		p, err := runChild(o, modeUntraced, stderr)
		if err != nil {
			return err
		}
		untraced = append(untraced, p)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*len(untraced)) >= budget {
			break
		}
	}
	// The untraced passes come first so that, without recorded
	// references, they set the digests every other pass must match.
	passes := append(append([]passResult(nil), untraced...), checked)
	var traced passResult
	if o.trace == 1 {
		if traced, err = runChild(o, modeTraced, stderr); err != nil {
			return err
		}
		passes = append(passes, traced)
	}
	attempted, failed, notes := checkRuns(passes, refs)
	for _, n := range notes {
		fmt.Fprintln(stderr, "FAIL", n)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if o.trace == 1 {
		for name, v := range layerMetrics(traced, untraced, checked) {
			res.Metrics[name] = metric{v, perLayerUnit(name)}
		}
		name := fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)
		path, err := writeSpans(o.outdir, name, traced.Spans)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "spans: %s (%d)\n", path, len(traced.Spans))
	} else {
		e2e := endToEnd(untraced, speedOf(untraced))
		for _, m := range endToEndNames {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	summarize(stderr, o, untraced, res, refs)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// summarize prints a human-readable table of the run to stderr.
func summarize(w io.Writer, o options, untraced []passResult, res result, refs map[string]string) {
	recorded := 0
	for _, r := range untraced[0].Scenarios {
		if _, ok := refs[r.Key]; ok {
			recorded++
		}
	}
	fmt.Fprintf(w, "workload %s seed %d: %d untraced passes; %d of %d scenarios have recorded reference digests, the rest are checked across passes\n",
		o.workload, o.seed, len(untraced), recorded, len(untraced[0].Scenarios))
	h := speedOf(untraced)
	var cpus []float64
	for _, p := range untraced {
		cpus = append(cpus, p.CPUS)
	}
	fmt.Fprintf(w, "  passes: raw cpu_s %.4f (spread %.3f); host %.4f× slower than the reference (cpu), %.4f× (wall)\n", cpus, spread(cpus), h.cpu, h.wall)
	raw, err := json.Marshal(endToEnd(untraced, hostSpeed{1, 1}))
	if err == nil {
		fmt.Fprintf(w, "  raw: %s\n", raw)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g (%d of %d scenario runs)\n", "fail_frac", frac, res.Failed, res.Attempted)
}

// regenerate records the reference digests of one workload's scenarios
// from a checked pass: outputs are only recorded when every invariant
// holds.
func regenerate(o options, stderr io.Writer) error {
	p, err := runChild(o, modeChecked, stderr)
	if err != nil {
		return err
	}
	digests := make(map[string]string, len(p.Scenarios))
	for _, r := range p.Scenarios {
		if r.Err != "" || len(r.Violations) > 0 {
			return fmt.Errorf("%s: not recording a failed run (%s%v)", r.Key, r.Err, r.Violations)
		}
		digests[r.Key] = r.Digest
	}
	if err := saveRefs(refsDir, o.workload, digests); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "recorded %d digests for %s in %s\n", len(digests), o.workload, refPath(refsDir, o.workload))
	return nil
}
