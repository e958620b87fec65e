// Command perfbench is txkv's standing benchmark. It runs one workload per
// process against the program's public surface, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every run also writes a machine-readable run record (metrics, op-class
// counts and sample counts, seed, environment, machine load) under
// -records. See README.md for the workloads, metrics and checks.
//
//	bash perfbench/run.sh -workload oltp -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -quick       # every workload for a few seconds, plus the self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"oltp":         runOLTP,
	"reads-tcp":    runReadsTCP,
	"failover-rf3": runFailover,
}

var workloadOrder = []string{"oltp", "reads-tcp", "failover-rf3"}

// A run sets up at least minSetupRounds times and goes on until the
// set-ups have taken setupBudget or maxSetupRounds are done; setup_s is the
// median, and the last round's deployment is the one measured. Short
// set-ups thus get more rounds, so one slow round moves the median less.
const (
	minSetupRounds = 5
	maxSetupRounds = 15
	setupBudget    = 2 * time.Second
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type classReport struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Samples   int   `json:"samples"`
}

// runner carries one run's settings and collects its results.
type runner struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	quick    bool
	falsify  string // "", "ledger" or "op": the self-check's altered expectation
	tmp      string
	out      io.Writer

	setups   []float64
	classes  classSet
	metrics  []metric
	reported []metric       // recorded and printed, not in the result line
	samples  map[string]int // metric name -> samples behind it
	checks   []check
	notes    map[string]any
	win      *window
	opErr    error       // first failed operation
	timers   benchTimers // the benchmark's own timers, reset for the traced half
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// check records a correctness check; a non-nil err fails it.
func (r *runner) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.checks = append(r.checks, c)
	status := "ok"
	if err != nil {
		status = "FAILED: " + err.Error()
	}
	r.logf("check %-28s %s", name, status)
}

// opFailed keeps the first error of a failed operation for the ops check.
func (r *runner) opFailed(err error) {
	if err != nil && r.opErr == nil {
		r.opErr = err
	}
}

// falsifyOp reports whether timed operations check against an altered
// expectation (the self-check of the per-operation checks).
func (r *runner) falsifyOp(timed bool) bool { return timed && r.falsify == "op" }

// checkOps fails the run if any operation failed: every op checks its own
// output, so a failed op is a wrong answer or a request the program could
// not serve.
func (r *runner) checkOps() {
	var failed, attempted int64
	for _, c := range r.classes {
		failed += c.failed
		attempted += c.attempted
	}
	var err error
	if failed > 0 {
		err = fmt.Errorf("%d of %d operations failed; first: %v", failed, attempted, r.opErr)
	}
	r.check("ops.none_failed", err)
}

func (r *runner) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit})
}

// report adds a figure that is recorded and printed but is not one of the
// benchmark's declared metrics (see README: too noisy to bound here).
func (r *runner) report(name string, v float64, unit string) {
	r.reported = append(r.reported, metric{Name: name, Value: v, Unit: unit})
}

// timeSetup runs set-up as many times as the rounds above ask, tearing
// down all but the last, and records each duration.
func timeSetup[T any](r *runner, setup func() (T, error), teardown func(T)) (T, error) {
	var spent time.Duration
	for round := 0; ; round++ {
		t0 := time.Now()
		d, err := setup()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up round %d: %w", round, err)
		}
		took := time.Since(t0)
		r.setups = append(r.setups, took.Seconds())
		spent += took
		if round+1 >= maxSetupRounds || (round+1 >= minSetupRounds && spent >= setupBudget) {
			return d, nil
		}
		teardown(d)
		runtime.GC()
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measured window length in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
		quick    = flag.Bool("quick", false, "run every workload briefly, each in a fresh process, then the self-check")
		falsify  = flag.String("falsify", "", "self-check: \"ledger\" alters one expected final value, \"op\" one expectation of every timed operation; the run must then fail")
		records  = flag.String("records", ".bench_build/records", "directory for run records")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for the workloads' data directories")
	)
	flag.Parse()
	if *quick {
		os.Exit(quickMode(*seed))
	}
	if *falsify != "" && *falsify != "ledger" && *falsify != "op" {
		fmt.Fprintf(os.Stderr, "perfbench: -falsify must be ledger or op, not %q\n", *falsify)
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := &runner{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		falsify:  *falsify,
		tmp:      *tmp,
		out:      os.Stdout,
		classes:  classSet{},
		samples:  map[string]int{},
		notes:    map[string]any{},
	}
	r.quick = r.window < 5*time.Second
	r.logf("perfbench %s seed=%d window=%v trace=%v", r.workload, r.seed, r.window, r.trace)
	err := run(r)
	if err != nil {
		r.check("run", err)
	}
	os.Exit(r.finish(*records))
}

// finish prints the human-readable report, writes the run record and
// prints the result line. It returns the exit code.
func (r *runner) finish(recordDir string) int {
	r.checkOps()
	correct := len(r.checks) > 0
	for _, c := range r.checks {
		correct = correct && c.OK
	}
	var attempted, failed int64
	names := make([]string, 0, len(r.classes))
	for n := range r.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	classes := map[string]classReport{}
	for _, n := range names {
		c := r.classes[n]
		attempted += c.attempted
		failed += c.failed
		classes[n] = classReport{Attempted: c.attempted, Failed: c.failed, Samples: len(c.lat)}
		r.logf("ops %-14s attempted=%d failed=%d", n, c.attempted, c.failed)
	}
	out := map[string]map[string]any{}
	for _, m := range r.metrics {
		extra := ""
		if n, ok := r.samples[m.Name]; ok {
			extra = fmt.Sprintf("  (%d samples)", n)
		}
		r.logf("metric %-34s %14.4f %s%s", m.Name, m.Value, m.Unit, extra)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, m := range r.reported {
		extra := ""
		if n, ok := r.samples[m.Name]; ok {
			extra = fmt.Sprintf("  (%d samples)", n)
		}
		r.logf("reported %-32s %14.4f %s%s", m.Name, m.Value, m.Unit, extra)
	}
	if attempted == 0 {
		attempted = 1 // a run that never started still attempted itself
		failed = 1
	}
	rec := map[string]any{
		"workload":  r.workload,
		"seed":      r.seed,
		"seconds":   r.window.Seconds(),
		"trace":     r.trace,
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"classes":   classes,
		"metrics":   r.metrics,
		"reported":  r.reported,
		"samples":   r.samples,
		"checks":    r.checks,
		"setup_s":   r.setups,
		"notes":     r.notes,
		"env":       environment(),
		"time":      time.Now().UTC().Format(time.RFC3339),
	}
	if r.win != nil {
		rec["machine"] = map[string]float64{"steal_pct": r.win.stealPct, "busy_pct": r.win.busyPct, "window_s": r.win.seconds}
		r.logf("machine steal=%.2f%% busy=%.2f%% over the window", r.win.stealPct, r.win.busyPct)
	}
	if err := writeRecord(recordDir, r, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run record: %v\n", err)
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": out})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func writeRecord(dir string, r *runner, rec map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.workload, r.seed, trace, time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	r.logf("record %s", path)
	return nil
}

// environment describes the machine and build a record was made on.
func environment() map[string]any {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpuModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel,
		"commit":     commit,
	}
}

// quickMode runs every workload for a few seconds in a fresh process with
// every check on, then the self-check: each workload again with one
// expected final value altered, and again with every timed operation
// checking against an altered expectation. Each self-check run must report
// a failure, and of the check the alteration targets.
func quickMode(seed int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	runOne := func(w string, trace int, falsify string) (ok bool, out string) {
		args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", "3", "-trace", fmt.Sprint(trace)}
		if falsify != "" {
			args = append(args, "-falsify", falsify)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		outb, _ := cmd.Output()
		out = strings.TrimSpace(string(outb))
		var res struct {
			Correct bool `json:"correct"`
		}
		if err := json.Unmarshal([]byte(out[strings.LastIndex(out, "\n")+1:]), &res); err != nil {
			return false, out
		}
		return res.Correct && cmd.ProcessState.ExitCode() == 0, out
	}
	failures := 0
	for _, w := range workloadOrder {
		for _, trace := range []int{0, 1} {
			ok, out := runOne(w, trace, "")
			fmt.Printf("quick %-13s trace=%d correct=%v %s\n", w, trace, ok, out[strings.LastIndex(out, "\n")+1:])
			if !ok {
				failures++
			}
		}
	}
	// The check each alteration must fail, as printed by runner.check.
	target := map[string]*regexp.Regexp{
		"ledger": regexp.MustCompile(`(?m)^check \S+_matches_ledger +FAILED`),
		"op":     regexp.MustCompile(`(?m)^check ops\.none_failed +FAILED`),
	}
	for _, w := range workloadOrder {
		for _, f := range []string{"ledger", "op"} {
			ok, out := runOne(w, 0, f)
			detected := !ok && target[f].MatchString(out)
			fmt.Printf("self-check %-13s falsified %-6s expectation detected=%v\n", w, f, detected)
			if !detected {
				failures++
			}
		}
	}
	fmt.Printf("quick: %d failure(s)\n", failures)
	if failures > 0 {
		return 1
	}
	return 0
}
