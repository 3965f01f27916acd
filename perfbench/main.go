// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks that the simulator's outputs are correct,
// and prints the metrics BENCHMARK.json declares as the last line of
// standard output.
//
// Usage (normally through perfbench/run.py, which builds this binary and
// the CLIs it drives):
//
//	perfbench -workload paper|replay|serve -seed N -seconds S -trace 0|1 \
//	          -bin DIR -work DIR -spec BENCHMARK.json
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics, measured by timing the benchmark's own
// calls into each module's public functions (see README.md). Every
// timing is host time; simulated results are checked, never timed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// scale is the trace scale of every workload: the scale the committed
// goldens and BENCH_seed.json are pinned at.
const scale = 0.02

// goldenSeed is the seed the committed goldens were generated at.
const goldenSeed = 1993

// experimentConfig is the paper-faithful configuration every workload
// derives its inputs from.
func experimentConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(scale)
	cfg.SeedBase = seed
	return cfg
}

// opts carries the command line into the workloads.
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int    // threads, workers and connections the load may use
	bin     string // directory holding the built lptables, lpcluster, lpserve
	work    string // scratch directory for files the CLIs write
}

// outcome is one run's result before rendering.
type outcome struct {
	attempted int
	failed    int
	// mismatch marks a paper or replay output that differs from its
	// reference: the run prints its result and exits non-zero.
	mismatch bool
	metrics  map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// check counts one checked operation, failing it when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func main() { os.Exit(run()) }

// run executes one benchmark run and returns the exit code: 0, 1 when an
// output check failed, 2 when the run could not be made.
func run() int {
	workload := flag.String("workload", "", "workload to run: paper, replay or serve")
	seed := flag.Uint64("seed", goldenSeed, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	bin := flag.String("bin", "", "directory holding the built lptables, lpcluster and lpserve")
	workRoot := flag.String("work", os.TempDir(), "directory to hold the run's scratch files")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration listing the metrics to report")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail("-seconds must be at least 1 and -trace 0 or 1")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return fail("%v", err)
	}
	work, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(work)
	o := opts{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traced == 1,
		workers: min(2, runtime.NumCPU()),
		bin:     *bin,
		work:    work,
	}
	runtime.GOMAXPROCS(o.workers)
	fmt.Println(machineHeader(*workload, o))

	var out *outcome
	switch *workload {
	case "paper":
		out, err = runPaper(o)
	case "replay":
		out, err = runReplay(o)
	case "serve":
		out, err = runServe(o)
	default:
		return fail("unknown -workload %q (want paper, replay or serve)", *workload)
	}
	if err != nil {
		return fail("%s: %v", *workload, err)
	}
	decls := spec.EndToEnd
	if o.trace {
		decls = spec.PerLayer
		out.metrics["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
		// A layer the workload does not pass through reports 0; the
		// README's layer table says which layers each workload bypasses.
		for _, d := range decls {
			if _, ok := out.metrics[d.Name]; !ok {
				out.metrics[d.Name] = 0
			}
		}
	}
	if err := emit(out, decls); err != nil {
		return fail("%v", err)
	}
	if out.mismatch {
		return 1
	}
	return 0
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// emit prints the result line: exactly the declared metrics, each with
// its declared unit. A declared metric the workload did not produce, or a
// produced one nobody declared, is a bug in the benchmark.
func emit(out *outcome, decls []metricDecl) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(decls))
	for _, d := range decls {
		v, ok := out.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	var extra []string
	for name := range out.metrics {
		if _, ok := ms[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics measured: %s", strings.Join(extra, ", "))
	}
	names := make([]string, 0, len(decls))
	for _, d := range decls {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{!out.mismatch, out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// machineHeader describes the host: numbers are only comparable between
// runs that print the same header.
func machineHeader(workload string, o opts) string {
	return fmt.Sprintf("machine: go=%s nproc=%d gomaxprocs=%d cpu=%q workload=%s seed=%d seconds=%d trace=%t",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(),
		workload, o.seed, int(o.seconds/time.Second), o.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dieWithParent makes a child process die with the benchmark, so a run
// that is killed leaves nothing running.
func dieWithParent(cmd *exec.Cmd) *exec.Cmd {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// childPeakRSSMB is an exited child's resident-set high-water mark.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}
