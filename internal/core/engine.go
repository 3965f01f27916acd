package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/synth"
	"repro/internal/table"
)

// Engine schedules the full paper reproduction (Tables 1-9 plus the
// locality extension and the ablation suite) as a DAG of cells: one
// Artifacts build per program fans out first, then every requested
// table/ablation cell of that program runs as soon as its build lands.
// Cells execute on the FanOut scheduler, and the report is assembled in
// fixed table order afterwards, so the rendered output is byte-identical
// to a serial run at any worker count. cmd/lptables, the golden-file
// tests, and the root benchmarks all run through here.
//
// Artifacts are cached per model and their chain tables are frozen by
// Config.Build, so concurrent cells only ever read the shared tables; an
// Engine is safe for concurrent use, and repeated Runs reuse the cache.
type Engine struct {
	cfg  Config
	mu   sync.Mutex
	arts map[string]func() (*Artifacts, error)
}

// NewEngine returns an engine over one experiment configuration.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, arts: make(map[string]func() (*Artifacts, error))}
}

// modelByName resolves a model within the engine's configured set.
func (e *Engine) modelByName(name string) *synth.Model {
	for _, m := range e.cfg.Models {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Artifacts returns the cached, frozen artifacts for one model, building
// them on first use. The returned Artifacts are safe for concurrent
// read-side use by experiment cells.
func (e *Engine) Artifacts(name string) (*Artifacts, error) {
	m := e.modelByName(name)
	if m == nil {
		return nil, fmt.Errorf("core: unknown model %q (want %s)", name, strings.Join(e.programNames(), ", "))
	}
	e.mu.Lock()
	build, ok := e.arts[name]
	if !ok {
		build = sync.OnceValues(func() (*Artifacts, error) { return e.cfg.Build(m) })
		e.arts[name] = build
	}
	e.mu.Unlock()
	return build()
}

// programNames lists the configured model names in canonical order.
func (e *Engine) programNames() []string {
	out := make([]string, len(e.cfg.Models))
	for i, m := range e.cfg.Models {
		out[i] = m.Name
	}
	return out
}

// ParseTables parses a comma-separated -tables spec ("2,7,8") into the
// flag set Spec.Tables wants, rejecting unknown keys.
func ParseTables(spec string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, k := range strings.Split(spec, ",") {
		k = strings.TrimSpace(k)
		valid := false
		for _, f := range TableFlags {
			if k == f {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("core: unknown table %q (want %s)", k, strings.Join(TableFlags, ","))
		}
		want[k] = true
	}
	return want, nil
}

// Spec selects the cells of one engine run.
type Spec struct {
	// Tables holds the enabled -tables keys ("1".."9", "L", "A");
	// nil or empty runs everything.
	Tables map[string]bool
	// Programs subsets the configured models by name; order does not
	// matter (output always follows the configuration's canonical
	// order). Nil or empty runs every model.
	Programs []string
	// Workers bounds how many cells run at once; values below 1 clamp
	// to GOMAXPROCS. The rendered output is identical at any value.
	Workers int
	// Progress, when non-nil, receives one human-readable line per
	// scheduling milestone (build start/finish). Calls may come from
	// worker goroutines; the callback must be safe for concurrent use.
	Progress func(msg string)
}

// CellTiming records the wall-clock schedule of one cell: when it
// started relative to the run's start (after acquiring a worker slot)
// and how long it ran. Start offsets make cell overlap reconstructible —
// WriteChromeTrace renders them as a Perfetto-loadable trace.
type CellTiming struct {
	Program string
	Cell    string // "build", "1".."9", "L", "A1".."A8"
	Start   time.Duration
	Dur     time.Duration
}

// RunResult is one engine run's deterministic output plus its schedule
// telemetry.
type RunResult struct {
	// Output is the rendered report — byte-identical for a given
	// (Config, Tables, Programs) at any worker count.
	Output []byte
	// Timings lists per-cell wall-clock durations in deterministic cell
	// order (program-major, build first). Durations are machine- and
	// schedule-dependent; everything else is not.
	Timings []CellTiming
	// Wall is the end-to-end run duration.
	Wall time.Duration
}

// CPUTime sums the per-cell durations — the serial-equivalent work the
// run performed. Comparing it against Wall shows the achieved overlap.
func (r *RunResult) CPUTime() time.Duration {
	var sum time.Duration
	for _, t := range r.Timings {
		sum += t.Dur
	}
	return sum
}

// selectModels resolves and canonically orders the requested programs.
func (e *Engine) selectModels(programs []string) ([]*synth.Model, error) {
	if len(programs) == 0 {
		return e.cfg.Models, nil
	}
	want := make(map[string]bool, len(programs))
	for _, p := range programs {
		p = strings.TrimSpace(p)
		if e.modelByName(p) == nil {
			return nil, fmt.Errorf("core: unknown program %q (want %s)", p, strings.Join(e.programNames(), ", "))
		}
		want[p] = true
	}
	out := make([]*synth.Model, 0, len(want))
	for _, m := range e.cfg.Models {
		if want[m.Name] {
			out = append(out, m)
		}
	}
	return out, nil
}

// Run executes the spec's cells on FanOut and renders the
// report. Any build or cell error aborts the run; the first error in
// deterministic cell order is returned (the same error a serial run
// would hit first).
func (e *Engine) Run(spec Spec) (*RunResult, error) {
	start := time.Now()
	models, err := e.selectModels(spec.Programs)
	if err != nil {
		return nil, err
	}
	want := spec.Tables
	if len(want) == 0 {
		want = make(map[string]bool, len(TableFlags))
		for _, f := range TableFlags {
			want[f] = true
		}
	}
	for k := range want {
		if _, perr := ParseTables(k); perr != nil {
			return nil, perr
		}
	}

	cells := make([]cellDef, 0, len(cellDefs))
	for _, cd := range cellDefs {
		if want[cd.flag] {
			cells = append(cells, cd)
		}
	}

	nCell := len(cells)
	type slot struct {
		rows   map[string][]string
		err    error
		timing CellTiming
	}
	slots := make([]slot, len(models)*nCell)
	builds := make([]CellTiming, len(models))
	arts := make([]*Artifacts, len(models))

	progress := spec.Progress
	if progress == nil {
		progress = func(string) {}
	}

	// Each program is one group: its build is the prep, and its table
	// cells start as soon as the build lands.
	errs := FanOut(spec.Workers, len(models), func(pi int) (int, error) {
		m := models[pi]
		progress(fmt.Sprintf("building %s...", m.Name))
		t0 := time.Now()
		a, err := e.Artifacts(m.Name)
		builds[pi] = CellTiming{Program: m.Name, Cell: "build", Start: t0.Sub(start), Dur: time.Since(t0)}
		arts[pi] = a
		return nCell, err
	}, func(pi, ci int) {
		s := &slots[pi*nCell+ci]
		s.rows = make(map[string][]string, 2)
		add := func(tableID string, rowCells ...string) {
			s.rows[tableID] = rowCells
		}
		t0 := time.Now()
		s.err = cells[ci].run(e.cfg, arts[pi], add)
		s.timing = CellTiming{Program: models[pi].Name, Cell: cells[ci].name, Start: t0.Sub(start), Dur: time.Since(t0)}
	})

	for pi, m := range models {
		if errs[pi] != nil {
			return nil, fmt.Errorf("core: building %s: %w", m.Name, errs[pi])
		}
	}
	for pi, m := range models {
		for ci := range cells {
			if err := slots[pi*nCell+ci].err; err != nil {
				return nil, fmt.Errorf("core: %s cell %s: %w", m.Name, cells[ci].name, err)
			}
		}
	}

	// Assemble: tables in render order, rows in program order — the
	// exact bytes of a serial run regardless of completion order above.
	producer := make(map[string]int, len(tableDefs))
	for ci, cd := range cells {
		for _, td := range tableDefs {
			if td.cell == cd.name {
				producer[td.id] = ci
			}
		}
	}
	var buf bytes.Buffer
	for _, td := range tableDefs {
		if !want[td.flag] {
			continue
		}
		tb := table.New(td.title, td.headers...)
		ci := producer[td.id]
		for pi := range models {
			if row, ok := slots[pi*nCell+ci].rows[td.id]; ok {
				tb.RowStrings(row...)
			}
		}
		if _, err := tb.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("core: rendering %s: %w", td.id, err)
		}
	}

	timings := make([]CellTiming, 0, len(models)*(1+nCell))
	for pi := range models {
		timings = append(timings, builds[pi])
		for ci := range cells {
			timings = append(timings, slots[pi*nCell+ci].timing)
		}
	}
	return &RunResult{Output: buf.Bytes(), Timings: timings, Wall: time.Since(start)}, nil
}

// WriteTimings renders a run's per-cell wall-clock summary, slowest cell
// first (ties broken by schedule order), followed by the work/wall
// overlap line. Wall-clock figures are machine-dependent; this is
// operational telemetry, never part of the pinned report.
func (r *RunResult) WriteTimings(w *bytes.Buffer) {
	idx := make([]int, len(r.Timings))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Timings[idx[a]].Dur > r.Timings[idx[b]].Dur
	})
	fmt.Fprintf(w, "per-cell wall clock (slowest first):\n")
	for _, i := range idx {
		t := r.Timings[i]
		fmt.Fprintf(w, "  %-10s %-6s %10.3fs\n", t.Program, t.Cell, t.Dur.Seconds())
	}
	cpu := r.CPUTime()
	speedup := 1.0
	if r.Wall > 0 {
		speedup = cpu.Seconds() / r.Wall.Seconds()
	}
	fmt.Fprintf(w, "total cell time %.3fs over %.3fs wall (%.2fx overlap)\n",
		cpu.Seconds(), r.Wall.Seconds(), speedup)
}
