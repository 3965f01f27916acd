package heapsim

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Custom simulates a CUSTOMALLOC-style allocator (Grunwald & Zorn, the
// paper's reference [9] and the other profile-based-optimization lineage
// it builds on): training profiles identify the hottest request sizes,
// and the synthesized allocator gives each of those sizes its own exact-
// fit LIFO free list, carved from dedicated slabs with no per-object
// search, split, or coalesce. Everything else falls back to first-fit.
//
// Unlike the arena allocator it does not use lifetime prediction — it
// optimizes the speed of hot sizes, not the placement of short-lived
// objects — which is exactly the contrast the paper draws ("no
// optimization based upon predicted lifetimes is performed in their
// work").
type Custom struct {
	// HotSizes are the profiled request sizes (after Rounding) that get
	// dedicated free lists.
	HotSizes []int64
	// Rounding quantizes request sizes before the hot-size check
	// (default 8, the allocator's alignment).
	Rounding int64
	// SlabSize is the carve granularity for hot-size slabs (default 4KB).
	SlabSize int64
	// General is the fallback; a default FirstFit if nil.
	General *FirstFit

	initialized bool
	hot         map[int64]*sizeClass
	heapEnd     int64 // dedicated slab region (separate from General)
	live        map[trace.ObjectID]customObj
	ops         OpCounts
	obs         *customObs // nil unless a collector is attached
}

// customObs caches resolved metric handles for the hot paths.
type customObs struct {
	col    *obs.Collector
	carves *obs.Counter
}

type sizeClass struct {
	free []int64 // free chunk addresses, LIFO
}

type customObj struct {
	addr    int64
	size    int64 // rounded size class (the chunk extent)
	payload int64 // requested bytes, for layout audits
}

// customBase places the slab region away from the general heap's address
// space, like the arena area.
const customBase = int64(1) << 41

// NewCustom returns a CUSTOMALLOC-style simulator for the given hot sizes.
func NewCustom(hotSizes []int64) *Custom {
	c := &Custom{HotSizes: hotSizes}
	c.init()
	return c
}

func (c *Custom) init() {
	if c.initialized {
		return
	}
	if c.Rounding == 0 {
		c.Rounding = 8
	}
	if c.SlabSize == 0 {
		c.SlabSize = 4 << 10
	}
	if c.General == nil {
		c.General = &FirstFit{name: "custom", prefix: "firstfit"}
	}
	c.hot = make(map[int64]*sizeClass, len(c.HotSizes))
	for _, s := range c.HotSizes {
		c.hot[c.round(s)] = &sizeClass{}
	}
	c.live = make(map[trace.ObjectID]customObj)
	c.initialized = true
}

func (c *Custom) round(size int64) int64 {
	return (size + c.Rounding - 1) / c.Rounding * c.Rounding
}

// Observe implements Observable; the collector also attaches to the
// general fallback heap.
func (c *Custom) Observe(col *obs.Collector) {
	c.init()
	c.General.Observe(col)
	if col == nil {
		c.obs = nil
		return
	}
	c.obs = &customObs{col: col, carves: col.Counter("custom.carves")}
}

// Alloc implements Allocator; the predictedShort hint is ignored.
func (c *Custom) Alloc(id trace.ObjectID, size int64, _ bool) error {
	c.init()
	if err := checkSize(size); err != nil {
		return err
	}
	if _, dup := c.live[id]; dup {
		return errDoubleAlloc("custom", id)
	}
	rs := c.round(size)
	class, ok := c.hot[rs]
	if !ok {
		if err := c.General.Alloc(id, size, false); err != nil {
			return err
		}
		c.ops.Allocs++
		c.ops.GeneralBytes += size
		return nil
	}
	if len(class.free) == 0 {
		// Carve a slab into exact-size chunks (no headers: the size is
		// implied by the owning list, one of CUSTOMALLOC's savings).
		slab := align(rs, c.SlabSize)
		if err := checkGrowth("custom", c.heapEnd, slab); err != nil {
			return err
		}
		c.ops.BSDCarves++
		if c.obs != nil {
			c.obs.carves.Inc()
			c.obs.col.Emit(obs.EvHeapGrow, slab)
		}
		start := customBase + c.heapEnd
		c.heapEnd += slab
		for a := start; a+rs <= start+slab; a += rs {
			class.free = append(class.free, a)
		}
	}
	c.ops.Allocs++
	addr := class.free[len(class.free)-1]
	class.free = class.free[:len(class.free)-1]
	c.live[id] = customObj{addr: addr, size: rs, payload: size}
	c.ops.ArenaBytes += size // reuse the counter: bytes on the fast path
	return nil
}

// Free implements Allocator.
func (c *Custom) Free(id trace.ObjectID) error {
	c.init()
	o, ok := c.live[id]
	if ok {
		delete(c.live, id)
		c.ops.Frees++
		c.hot[o.size].free = append(c.hot[o.size].free, o.addr)
		return nil
	}
	if err := c.General.Free(id); err != nil {
		return err
	}
	c.ops.Frees++
	return nil
}

// HeapSize implements Allocator: slab region plus the general heap.
func (c *Custom) HeapSize() int64 {
	c.init()
	return c.heapEnd + c.General.HeapSize()
}

// MaxHeapSize implements Allocator (the slab region never shrinks).
func (c *Custom) MaxHeapSize() int64 {
	c.init()
	return c.heapEnd + c.General.MaxHeapSize()
}

// Counts implements Allocator, merging the fallback's counters.
func (c *Custom) Counts() OpCounts {
	c.init()
	out := c.ops
	g := c.General.Counts()
	out.Allocs += 0 // general allocs already counted above
	out.FFAllocs = g.FFAllocs
	out.FFFrees = g.FFFrees
	out.FFProbes = g.FFProbes
	out.FFExtends = g.FFExtends
	out.FFSplits = g.FFSplits
	out.FFCoalesces = g.FFCoalesces
	return out
}

// Addr implements Allocator.
func (c *Custom) Addr(id trace.ObjectID) (int64, bool) {
	c.init()
	if o, ok := c.live[id]; ok {
		return o.addr, true
	}
	return c.General.Addr(id)
}

// FastPathFrac reports the fraction of allocations served by the
// synthesized per-size lists.
func (c *Custom) FastPathFrac() float64 {
	total := c.ops.Allocs
	if total == 0 {
		return 0
	}
	general := c.Counts().FFAllocs
	return float64(total-general) / float64(total)
}
