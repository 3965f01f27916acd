package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// paperRuns are the three golden runs users make to reproduce the paper,
// in the order a pass runs them, each with the golden its seed-1993
// output must equal byte for byte.
var paperRuns = []struct {
	tool   string
	args   []string
	golden string
}{
	{"lptables", nil, "cmd/lptables/testdata/golden-scale0.02-seed1993.txt"},
	{"lptables", []string{"-tournament"}, "cmd/lptables/testdata/golden-tournament-scale0.02-seed1993.txt"},
	{"lpcluster", nil, "cmd/lpcluster/testdata/golden-cluster-scale0.02-seed1993.txt"},
}

// clusterTenants and clusterPools are lpcluster's defaults, the ones its
// golden pins.
var (
	clusterTenants = []string{"cfrac", "espresso", "gawk"}
	clusterPools   = []string{"4xarena", "4xfirstfit", "2xbsd"}
)

// cliTimeout bounds one CLI run, so a hung run still ends the benchmark
// well inside its time limit.
const cliTimeout = 100 * time.Second

// paperPass is one pass over the three golden runs.
type paperPass struct {
	wall       time.Duration
	outputs    [][]byte
	engineWall time.Duration // wall time of the plain lptables run
	cells      []float64     // its engine cells' durations, in seconds
	rssMB      float64       // the largest run's resident high-water mark
}

func runPaper(o opts) (*outcome, error) {
	out := newOutcome()
	cfg := experimentConfig(o.seed)
	var events int
	setup, err := timedSetup(func() error {
		n, err := inputEvents(cfg, synth.Train, synth.Test)
		events = n
		return err
	})
	if err != nil {
		return nil, err
	}
	var want [][]byte
	if o.seed == goldenSeed {
		for _, r := range paperRuns {
			b, err := os.ReadFile(r.golden)
			if err != nil {
				return nil, err
			}
			want = append(want, b)
		}
	}
	// checkPass compares a pass against the goldens, or at other seeds
	// against the first pass: every pass must print the same bytes.
	checkPass := func(p *paperPass) {
		if want == nil {
			want = p.outputs
		}
		for i, r := range paperRuns {
			var err error
			if !bytes.Equal(p.outputs[i], want[i]) {
				err = fmt.Errorf("%s %v seed %d: output differs from the reference", r.tool, r.args, o.seed)
				out.mismatch = true
			}
			out.check(err)
		}
	}

	if o.trace {
		return paperTraced(o, out, want)
	}
	var passes []*paperPass
	for r := newRounds(o.seconds); r.next(2); {
		p, err := runPaperPass(o)
		if err != nil {
			out.check(err)
			out.mismatch = true
			return out, nil
		}
		checkPass(p)
		passes = append(passes, p)
		if out.mismatch {
			break
		}
	}

	var walls, rates, jobRates, cells, rss []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(events)/p.wall.Seconds())
		jobRates = append(jobRates, float64(len(p.cells))/p.engineWall.Seconds())
		cells = append(cells, p.cells...)
		rss = append(rss, p.rssMB)
	}
	out.metrics["setup_s"] = setup
	out.metrics["wall_s"] = median(walls)
	out.metrics["events_per_s"] = median(rates)
	out.metrics["jobs_per_s"] = median(jobRates)
	out.metrics["job_latency_p50_s"] = median(cells)
	out.metrics["job_latency_p90_s"] = p90("job_latency", cells)
	out.metrics["peak_rss_mb"] = median(rss)
	fmt.Fprintf(os.Stderr, "paper: %d passes, %d engine cells timed, %d input events per pass\n",
		len(passes), len(cells), events)
	return out, nil
}

// inputEvents counts the events of the given inputs over every model.
func inputEvents(cfg core.Config, inputs ...synth.Input) (int, error) {
	total := 0
	for _, m := range cfg.Models {
		for _, in := range inputs {
			n, err := m.CountEvents(cfg.GenConfig(in))
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}

// runPaperPass runs the three golden commands back to back. The plain
// lptables run also writes its engine schedule, whose cells are the jobs
// the job-latency metrics describe.
func runPaperPass(o opts) (*paperPass, error) {
	p := &paperPass{}
	schedule := filepath.Join(o.work, "engine-schedule.json")
	for i, r := range paperRuns {
		args := append([]string{
			"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
			"-seed", strconv.FormatUint(o.seed, 10),
			"-workers", strconv.Itoa(o.workers),
		}, r.args...)
		if i == 0 {
			args = append(args, "-trace", schedule)
		}
		stdout, wall, rss, err := runCLI(filepath.Join(o.bin, r.tool), args)
		if err != nil {
			return nil, err
		}
		p.wall += wall
		p.outputs = append(p.outputs, stdout)
		p.rssMB = max(p.rssMB, rss)
		if i == 0 {
			p.engineWall = wall
			if p.cells, err = readSchedule(schedule); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// runCLI runs one command to completion and returns its standard output,
// wall time and resident high-water mark.
func runCLI(path string, args []string) ([]byte, time.Duration, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := dieWithParent(exec.CommandContext(ctx, path, args...))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return nil, 0, 0, fmt.Errorf("%s %v: %w\n%s", filepath.Base(path), args, err, tail)
	}
	return stdout.Bytes(), wall, childPeakRSSMB(cmd.ProcessState), nil
}

// readSchedule reads the per-cell durations, in seconds, from an engine
// schedule written by lptables -trace (Chrome trace_event JSON, in µs).
func readSchedule(path string) ([]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("%s: no engine cells", path)
	}
	out := make([]float64, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		out[i] = ev.Dur / 1e6
	}
	return out, nil
}

// paperLayers accumulates the traced paper run's spans.
type paperLayers struct {
	build, gate, clusterRun     span
	cells                       map[string]*span
	engineCPU, engineWall       time.Duration
	generate, train, zoo, merge span
}

// paperTraced runs the three experiments in this process, through the
// same public entry points the CLIs call: one pass without spans, then
// passes with spans around each call, each followed by component
// measurements over the same inputs, until the time is up.
func paperTraced(o opts, out *outcome, want [][]byte) (*outcome, error) {
	cfg := experimentConfig(o.seed)
	r := newRounds(o.seconds)
	r.next(1)
	untraced, ref, err := paperInProcess(o, cfg, nil)
	if err != nil {
		return nil, err
	}
	// The CLIs print a header line before each report.
	for i := range want {
		out.check(sameReport(paperRuns[i].tool, bytes.HasSuffix(want[i], ref[i])))
	}
	ls := &paperLayers{cells: map[string]*span{}}
	var walls []float64
	for r.next(2) {
		wall, outs, err := paperInProcess(o, cfg, ls)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		for i := range outs {
			out.check(sameReport(paperRuns[i].tool, bytes.Equal(outs[i], ref[i])))
		}
		if err := paperComponents(cfg, ls); err != nil {
			return nil, err
		}
	}
	if out.failed > 0 {
		out.mismatch = true
	}
	passes := float64(len(walls))
	m := out.metrics
	m["core.build.busy_s"] = ls.build.seconds() / passes
	for id, s := range ls.cells {
		m["core.cell."+id+".busy_s"] = s.seconds() / passes
	}
	m["core.engine.idle_frac"] = 1 - ls.engineCPU.Seconds()/(ls.engineWall.Seconds()*float64(o.workers))
	m["check.gate.busy_s"] = ls.gate.seconds() / passes
	m["cluster.run.busy_s"] = ls.clusterRun.seconds() / passes
	m["synth.generate.ns_per_event"] = ls.generate.nsPer()
	m["profile.train.ns_per_event"] = ls.train.nsPer()
	m["profile.zoo_train.busy_s"] = ls.zoo.seconds() / passes
	m["trace.merge.ns_per_event"] = ls.merge.nsPer()
	tracedWall := median(walls)
	m["tracing.untraced_wall_s"] = untraced.Seconds()
	m["tracing.traced_wall_s"] = tracedWall
	m["tracing.overhead_frac"] = tracedWall/untraced.Seconds() - 1
	return out, nil
}

func sameReport(tool string, same bool) error {
	if same {
		return nil
	}
	return fmt.Errorf("in-process %s report differs from the reference", tool)
}

// paperInProcess runs lptables, lptables -tournament and lpcluster's
// work in this process, as the CLIs do, and returns the reports they
// print after their header line. With ls nil it records no spans.
func paperInProcess(o opts, cfg core.Config, ls *paperLayers) (time.Duration, [][]byte, error) {
	t0 := time.Now()
	res, err := core.NewEngine(cfg).Run(core.Spec{Workers: o.workers})
	if err != nil {
		return 0, nil, err
	}
	if ls != nil {
		for _, t := range res.Timings {
			if t.Cell == "build" {
				ls.build.add(t.Dur, 1)
				continue
			}
			if ls.cells[t.Cell] == nil {
				ls.cells[t.Cell] = &span{}
			}
			ls.cells[t.Cell].add(t.Dur, 1)
		}
		ls.engineCPU += res.CPUTime()
		ls.engineWall += res.Wall
	}

	gate := func() error {
		fs, err := check.Factories()
		if err != nil {
			return err
		}
		return check.RunOracles(cfg.SeedBase, 3, check.GenConfig{}, fs, check.Options{Stride: 16}, nil)
	}
	if ls != nil {
		untimed := gate
		gate = func() error {
			defer ls.gate.since(time.Now(), 1)
			return untimed()
		}
	}
	tres, err := core.NewEngine(cfg).RunTournament(core.TournamentSpec{Workers: o.workers, Gate: gate})
	if err != nil {
		return 0, nil, err
	}

	tg := time.Now()
	err = clusterGate(cfg.SeedBase)
	if ls != nil {
		ls.gate.since(tg, 1)
	}
	if err != nil {
		return 0, nil, err
	}
	mres, err := cluster.RunMatrix(cluster.MatrixConfig{
		Core:      cfg,
		Tenants:   clusterTenants,
		Policies:  cluster.PolicyNames(),
		Pools:     clusterPools,
		Admission: cluster.Reject,
		Workers:   o.workers,
	})
	if err != nil {
		return 0, nil, err
	}
	var report bytes.Buffer
	if err := mres.WriteReport(&report); err != nil {
		return 0, nil, err
	}
	return time.Since(t0), [][]byte{res.Output, tres.Output, report.Bytes()}, nil
}

// clusterGate is lpcluster's conformance gate: every pool shape audited
// over two generated traces.
func clusterGate(seed uint64) error {
	for _, spec := range clusterPools {
		kinds, err := cluster.ParsePoolSpec(spec)
		if err != nil {
			return err
		}
		for s := seed; s < seed+2; s++ {
			p, err := newPool("gate:"+spec, kinds)
			if err != nil {
				return err
			}
			err = check.AuditPool(trace.NewSliceSource(check.GenTrace(s, check.GenConfig{})), spec, p, check.Options{
				Stride:  32,
				Predict: check.GenPredict(1 << 12),
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func newPool(name string, kinds []string) (*heapsim.Pool, error) {
	members := make([]heapsim.Allocator, len(kinds))
	for i, k := range kinds {
		a, err := core.NewAllocator(k)
		if err != nil {
			return nil, err
		}
		members[i] = a
	}
	return heapsim.NewPool(name, members...)
}

// paperComponents times the layers the engine and the cluster call
// internally, each over inputs generated beforehand so a span covers one
// layer only: generation, training, the zoo trainers, the tenant merge
// and every cluster scenario's replays.
func paperComponents(cfg core.Config, ls *paperLayers) error {
	trains := map[string]*trace.Trace{}
	for _, m := range cfg.Models {
		for _, in := range []synth.Input{synth.Train, synth.Test} {
			src, err := m.Source(cfg.GenConfig(in))
			if err != nil {
				return err
			}
			t0 := time.Now()
			tr, err := trace.Collect(src)
			ls.generate.since(t0, int64(len(tr.Events)))
			if err != nil {
				return err
			}
			if in == synth.Train {
				trains[m.Name] = tr
			}
		}
		tr := trains[m.Name]
		t0 := time.Now()
		if _, err := profile.TrainSource(trace.NewSliceSource(tr), cfg.Profile); err != nil {
			return err
		}
		ls.train.since(t0, int64(len(tr.Events)))
		for _, z := range profile.ZooTrainers() {
			if z.Name == "paper" {
				continue // the paper's predictor is profile.train above
			}
			t0 := time.Now()
			if _, err := z.Train(tr, cfg.Profile); err != nil {
				return err
			}
			ls.zoo.since(t0, 1)
		}
	}

	// The cluster's tenants are the Test inputs of its tenant models,
	// each predicted by its model's Train-trained predictor.
	var tests []*trace.Trace
	var preds []*profile.Predictor
	for _, name := range clusterTenants {
		a, err := cfg.Build(synth.ByName(name))
		if err != nil {
			return err
		}
		tests = append(tests, a.TestTrace)
		preds = append(preds, a.TrainPredictor)
	}
	// The merge is the keyed interleaver cluster.Run drains: MergeSources
	// refuses shards of different programs.
	shards := make([]trace.Source, len(tests))
	for i, tr := range tests {
		shards[i] = trace.NewSliceSource(tr)
	}
	it, err := trace.NewKeyedInterleaver(shards, clusterTenants)
	if err != nil {
		return err
	}
	t0 := time.Now()
	n := 0
	for {
		_, _, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n++
	}
	ls.merge.since(t0, int64(n))

	for _, policy := range cluster.PolicyNames() {
		for _, spec := range clusterPools {
			kinds, err := cluster.ParsePoolSpec(spec)
			if err != nil {
				return err
			}
			replay := func(budget int64) (*cluster.Result, error) {
				tenants := make([]cluster.Tenant, len(tests))
				for i, tr := range tests {
					tenants[i] = cluster.Tenant{
						ID:     clusterTenants[i],
						Source: trace.NewSliceSource(tr),
						Oracle: preds[i].NewMapper(tr.Table),
					}
				}
				pool, err := newPool("pool:"+spec, kinds)
				if err != nil {
					return nil, err
				}
				pol, err := cluster.NewPolicy(policy)
				if err != nil {
					return nil, err
				}
				defer ls.clusterRun.since(time.Now(), 1)
				return cluster.Run(cluster.Config{Pool: pool, Policy: pol, Admission: cluster.Reject, Budget: budget}, tenants)
			}
			free, err := replay(0)
			if err != nil {
				return err
			}
			if _, err := replay(max(free.PeakLive/2, 1)); err != nil {
				return err
			}
		}
	}
	return nil
}
