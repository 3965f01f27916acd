// Package obs is the reproduction's observability subsystem: named atomic
// counters and gauges, fixed-bucket histograms, a byte-clock timeline
// sampler, and a structured event sink, bundled behind a Collector that
// the allocator simulators and the core replay loops stream into.
//
// The paper's tables are single end-of-run aggregates; obs explains *how*
// a run got its numbers — first-fit search lengths over time, arena
// reuse/overflow events, heap high-water trajectories. Everything here is
// zero-dependency (stdlib only) and designed so that the disabled path is
// free: allocators hold a nil observer and skip every hook with one
// pointer compare, and core's replay loops add a single predictable
// branch per event when no Collector is attached.
//
// Time is measured in *bytes allocated* (the paper's clock), never wall
// time, so every run is deterministic and comparable across machines.
//
// Typical use:
//
//	col := obs.NewCollector(obs.Options{Label: "gawk/arena"})
//	res, _ := core.RunSim(tr, heapsim.NewArena(), pred, col)
//	obs.WriteJSON(f, res.Obs) // render later with cmd/lpstats
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any sign, but counters are conventionally
// monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that also remembers its high-water
// mark. The zero value is ready to use; safe for concurrent use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value, updating the maximum.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Registry is a name-keyed set of counters, gauges, and histograms.
// Lookup is create-on-demand so instrumented code never needs a
// registration phase; handles should be resolved once and cached on hot
// paths (map lookups are mutex-guarded).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Log2Histogram returns the named log2-bucketed histogram, creating it
// with the given bucket count on first use.
func (r *Registry) Log2Histogram(name string, buckets int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewLog2Histogram(buckets)
		r.hists[name] = h
	}
	return h
}

// LinearHistogram returns the named linearly-bucketed histogram, creating
// it with the given geometry on first use.
func (r *Registry) LinearHistogram(name string, width int64, buckets int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewLinearHistogram(width, buckets)
		r.hists[name] = h
	}
	return h
}

// CounterValues returns a snapshot of all counters.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// GaugeValues returns a snapshot of all gauges.
func (r *Registry) GaugeValues() map[string]GaugeSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]GaugeSnapshot, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	return out
}

// HistogramValues returns a snapshot of all histograms.
func (r *Registry) HistogramValues() map[string]HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// Names returns all metric names (counters, gauges, histograms), sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
