package heapsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Arena simulates the paper's lifetime-predicting arena allocator (§5.1):
//
//   - A fixed set of small arenas (16 x 4KB in the paper, chosen so the
//     64KB total is twice the 32KB short-lived age) holds objects
//     predicted short-lived. Each arena has only an allocation pointer and
//     a live-object count — no per-object headers.
//   - Allocation bumps the current arena's pointer. When the arena is
//     full, all arenas are scanned for one whose count is zero; that arena
//     is reset and becomes current. If none is free the object is
//     allocated in the general heap ("as if it were long-lived").
//   - Free of an arena object just decrements its arena's count. Arena
//     membership is recognized by address, because the arena area is
//     contiguous and disjoint from the general heap.
//   - Objects not predicted short, objects larger than an arena, and
//     arena-overflow objects go to a first-fit general heap.
//
// Mispredicted long-lived objects "pollute" arenas: an arena holding one
// never reaches count zero and is never reused — the CFRAC failure mode of
// §5.2.
type Arena struct {
	// NumArenas and ArenaSize default to the paper's 16 x 4KB.
	NumArenas int
	ArenaSize int64
	// General is the fallback allocator; a default FirstFit if nil.
	General *FirstFit

	initialized bool
	arenas      []arenaState
	current     int
	where       objIndex[arenaLoc] // arena objects only
	ops         OpCounts
	obs         *arenaObs // nil unless a collector is attached
}

// arenaObs caches resolved metric handles for the hot paths.
type arenaObs struct {
	col       *obs.Collector
	scanLen   *obs.Histogram // arenas examined per overflow hunt (linear)
	allocSize *obs.Histogram // arena-placed sizes (log2)
	resets    *obs.Counter
	fallbacks *obs.Counter
	pinned    *obs.Gauge
}

// arenaLoc records where in the arena area an object was bump-allocated.
type arenaLoc struct {
	idx  int
	off  int64
	size int64 // requested bytes, for layout audits
}

// ArenaBase is the synthetic base address of the arena area, disjoint from
// the general heap's address space (which starts at 0).
const ArenaBase = int64(1) << 40

type arenaState struct {
	used  int64
	count int64
}

// NewArena returns an arena allocator with the paper's geometry over a
// fresh first-fit general heap.
func NewArena() *Arena {
	a := &Arena{}
	a.init()
	return a
}

func (a *Arena) init() {
	if a.initialized {
		return
	}
	if a.NumArenas == 0 {
		a.NumArenas = 16
	}
	if a.ArenaSize == 0 {
		a.ArenaSize = 4 << 10
	}
	if a.General == nil {
		// The fallback heap reports errors as the composite's, but its
		// metrics stay under "firstfit." so snapshots separate the layers.
		a.General = &FirstFit{name: "arena", prefix: "firstfit"}
	}
	a.arenas = make([]arenaState, a.NumArenas)
	a.initialized = true
}

// Observe implements Observable; the collector also attaches to the
// general fallback heap, so one snapshot covers both layers.
func (a *Arena) Observe(col *obs.Collector) {
	a.init()
	a.General.Observe(col)
	if col == nil {
		a.obs = nil
		return
	}
	a.obs = &arenaObs{
		col:       col,
		scanLen:   col.LinearHistogram("arena.scan_len", 1, 32),
		allocSize: col.Log2Histogram("arena.alloc_size", 16),
		resets:    col.Counter("arena.resets"),
		fallbacks: col.Counter("arena.fallbacks"),
		pinned:    col.Gauge("arena.pinned"),
	}
}

// Alloc implements Allocator. Objects with predictedShort true are placed
// in an arena when possible.
func (a *Arena) Alloc(id trace.ObjectID, size int64, predictedShort bool) error {
	a.init()
	if err := checkSize(size); err != nil {
		return err
	}
	a.ops.PredChecks++
	if !predictedShort || size > a.ArenaSize {
		return a.generalAlloc(id, size, false)
	}
	// Try the current arena.
	cur := &a.arenas[a.current]
	if cur.used+size <= a.ArenaSize {
		return a.bump(id, size)
	}
	// Scan for an arena with no live objects (paper: "the algorithm
	// scans all short-lived arenas attempting to find one with a zero
	// count field").
	for i := 1; i <= a.NumArenas; i++ {
		idx := (a.current + i) % a.NumArenas
		a.ops.ArenaScanSteps++
		if a.arenas[idx].count == 0 {
			a.arenas[idx].used = 0
			a.current = idx
			a.ops.ArenaResets++
			if a.obs != nil {
				a.obs.scanLen.Observe(int64(i))
				a.obs.resets.Inc()
				a.obs.col.Emit(obs.EvArenaReuse, int64(idx))
			}
			return a.bump(id, size)
		}
	}
	// All arenas pinned by live (possibly mispredicted) objects:
	// degenerate to the general-purpose allocator.
	if a.obs != nil {
		a.obs.scanLen.Observe(int64(a.NumArenas))
		a.obs.fallbacks.Inc()
		a.obs.col.Emit(obs.EvArenaOverflow, size)
	}
	return a.generalAlloc(id, size, true)
}

// bump places the object in the current arena.
func (a *Arena) bump(id trace.ObjectID, size int64) error {
	if _, dup := a.where.get(id); dup {
		return errDoubleAlloc("arena", id)
	}
	if _, live := a.General.live.get(id); live {
		return errDoubleAlloc("arena", id)
	}
	st := &a.arenas[a.current]
	a.where.put(id, arenaLoc{idx: a.current, off: st.used, size: size})
	st.used += size
	st.count++
	a.ops.Allocs++
	a.ops.ArenaAllocs++
	a.ops.ArenaObjects++
	a.ops.ArenaBytes += size
	if a.obs != nil {
		a.obs.allocSize.Observe(size)
		if st.count == 1 {
			a.obs.pinned.Set(int64(a.PinnedArenas()))
		}
	}
	return nil
}

// generalAlloc places the object in the fallback heap.
func (a *Arena) generalAlloc(id trace.ObjectID, size int64, fallback bool) error {
	if _, dup := a.where.get(id); dup {
		return errDoubleAlloc("arena", id)
	}
	if err := a.General.Alloc(id, size, false); err != nil {
		return err
	}
	a.ops.Allocs++
	a.ops.GeneralBytes += size
	if fallback {
		a.ops.ArenaFallbacks++
	}
	// The general heap's own counters (FFAllocs etc.) accumulate inside
	// a.General; Counts() merges them.
	return nil
}

// Free implements Allocator. Arena objects just decrement their arena's
// live count (the address-range check in a real implementation is a couple
// of compares).
func (a *Arena) Free(id trace.ObjectID) error {
	a.init()
	if loc, ok := a.where.del(id); ok {
		st := &a.arenas[loc.idx]
		if st.count <= 0 {
			return fmt.Errorf("heapsim: arena %d count underflow freeing %d", loc.idx, id)
		}
		st.count--
		a.ops.Frees++
		a.ops.ArenaFrees++
		if a.obs != nil && st.count == 0 {
			a.obs.pinned.Set(int64(a.PinnedArenas()))
		}
		return nil
	}
	if err := a.General.Free(id); err != nil {
		return err
	}
	a.ops.Frees++
	return nil
}

// HeapSize implements Allocator: the general heap plus the full arena
// area (the paper's Table 8 "include[s] the 64-kilobyte arena area").
func (a *Arena) HeapSize() int64 {
	a.init()
	return a.General.HeapSize() + int64(a.NumArenas)*a.ArenaSize
}

// MaxHeapSize implements Allocator.
func (a *Arena) MaxHeapSize() int64 {
	a.init()
	return a.General.MaxHeapSize() + int64(a.NumArenas)*a.ArenaSize
}

// Counts implements Allocator, merging the general heap's counters.
func (a *Arena) Counts() OpCounts {
	a.init()
	c := a.ops
	g := a.General.Counts()
	c.FFAllocs = g.FFAllocs
	c.FFFrees = g.FFFrees
	c.FFProbes = g.FFProbes
	c.FFExtends = g.FFExtends
	c.FFSplits = g.FFSplits
	c.FFCoalesces = g.FFCoalesces
	return c
}

// Addr implements Allocator. Arena objects live in a synthetic window at
// ArenaBase, packed into NumArenas*ArenaSize bytes, which is exactly the
// locality property the paper claims for them; general-heap objects use
// the first-fit address space starting at 0.
func (a *Arena) Addr(id trace.ObjectID) (int64, bool) {
	a.init()
	if loc, ok := a.where.get(id); ok {
		return ArenaBase + int64(loc.idx)*a.ArenaSize + loc.off, true
	}
	return a.General.Addr(id)
}

// ArenaOccupancy reports the fraction of the arena area's bytes under
// the bump pointers of arenas holding live objects — the timeline
// sampler's arena-occupancy signal.
func (a *Arena) ArenaOccupancy() float64 {
	a.init()
	var used int64
	for _, st := range a.arenas {
		if st.count > 0 {
			used += st.used
		}
	}
	return float64(used) / float64(int64(a.NumArenas)*a.ArenaSize)
}

// PinnedArenas reports how many arenas currently hold at least one live
// object — a direct measure of pollution.
func (a *Arena) PinnedArenas() int {
	a.init()
	n := 0
	for _, st := range a.arenas {
		if st.count > 0 {
			n++
		}
	}
	return n
}
