package heapsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// FirstFit simulates a first-fit allocator with Knuth's enhancements
// (TAOCP vol. 1 §2.5): a roving pointer so successive searches resume
// where the last one stopped (Algorithm A step A4' — "next fit"), and
// boundary-tag-style immediate coalescing so Free is O(1). The heap grows
// in fixed chunks (8KB by default), which is why the paper's Table 8 heap
// sizes are 8KB multiples.
type FirstFit struct {
	// Alignment and per-object header overhead, both 8 bytes by default,
	// matching a typical 1990s 32/64-bit malloc with a size word and
	// boundary tags.
	Align  int64
	Header int64
	// Chunk is the sbrk growth granularity (default 8KB).
	Chunk int64
	// MinSplit is the smallest free fragment worth keeping (default 32);
	// smaller remainders are absorbed into the allocated block rather
	// than left as dead weight on the free list.
	MinSplit int64
	// RoverOnFree selects the K&R variant in which free leaves the
	// roving pointer at the freed block, so freshly dead storage is
	// reused immediately. The default (false) is Knuth's A4' next fit:
	// the rover stays where the last allocation happened, which spreads
	// placements across the heap — the fragmentation behaviour the
	// paper's Table 8 exhibits on GHOST. The policy is an ablation knob;
	// see EXPERIMENTS.md.
	RoverOnFree bool

	initialized bool
	name        string // names errors: "firstfit", "bestfit", or the composite that owns this heap
	prefix      string // metric prefix; defaults to name, but a composite's fallback keeps "firstfit"
	heapEnd     int64
	maxHeapEnd  int64
	liveBytes   int64
	obs         *ffObs // nil unless a collector is attached

	head, tail *ffBlock // address-ordered list of all blocks
	freeHead   *ffBlock // circular free list
	rover      *ffBlock
	freeBlocks int
	pool       ffBlockPool

	live objIndex[*ffBlock]
	ops  OpCounts
}

type ffBlock struct {
	addr, size   int64 // size includes the header and padding
	payload      int64 // the requested size (live blocks only)
	free         bool
	aPrev, aNext *ffBlock // address order
	fPrev, fNext *ffBlock // circular free list (only valid when free)
}

// ffBlockPool recycles ffBlock records so steady-state replay performs no
// per-event heap allocation: coalescing releases a record, the next split
// or extend reuses it. Fresh records come from slabs grown geometrically
// (so a replay needing N simultaneous blocks performs O(log N) slab
// allocations), and released records are fully zeroed so a recycled block
// never retains pointers into the dead block graph.
type ffBlockPool struct {
	free     *ffBlock  // LIFO reuse list, linked through aNext
	slab     []ffBlock // current slab, consumed from the front
	slabSize int
}

const (
	ffSlabStart = 64
	ffSlabCap   = 64 << 10
)

func (p *ffBlockPool) get() *ffBlock {
	if b := p.free; b != nil {
		p.free = b.aNext
		b.aNext = nil
		return b
	}
	if len(p.slab) == 0 {
		if p.slabSize == 0 {
			p.slabSize = ffSlabStart
		} else if p.slabSize < ffSlabCap {
			p.slabSize *= 2
		}
		p.slab = make([]ffBlock, p.slabSize)
	}
	b := &p.slab[0]
	p.slab = p.slab[1:]
	return b
}

func (p *ffBlockPool) put(b *ffBlock) {
	*b = ffBlock{aNext: p.free}
	p.free = b
}

// NewFirstFit returns a first-fit simulator with the default geometry.
func NewFirstFit() *FirstFit {
	ff := &FirstFit{}
	ff.init()
	return ff
}

// ffObs caches resolved metric handles so the hot paths pay one nil
// check, not a registry lookup, per operation.
type ffObs struct {
	col       *obs.Collector
	searchLen *obs.Histogram // free blocks probed per allocation (linear)
	allocSize *obs.Histogram // requested sizes (log2)
	splits    *obs.Counter
	coalesces *obs.Counter
	extends   *obs.Counter
}

// Observe implements Observable: metrics are prefixed with the
// allocator's name ("firstfit", or "bestfit" when embedded there).
func (ff *FirstFit) Observe(col *obs.Collector) {
	ff.init()
	if col == nil {
		ff.obs = nil
		return
	}
	p := ff.prefix
	ff.obs = &ffObs{
		col:       col,
		searchLen: col.LinearHistogram(p+".search_len", 4, 64),
		allocSize: col.Log2Histogram(p+".alloc_size", 24),
		splits:    col.Counter(p + ".splits"),
		coalesces: col.Counter(p + ".coalesces"),
		extends:   col.Counter(p + ".extends"),
	}
}

func (ff *FirstFit) init() {
	if ff.initialized {
		return
	}
	if ff.name == "" {
		ff.name = "firstfit"
	}
	if ff.prefix == "" {
		ff.prefix = ff.name
	}
	if ff.Align == 0 {
		ff.Align = 8
	}
	if ff.Header == 0 {
		ff.Header = 8
	}
	if ff.Chunk == 0 {
		ff.Chunk = 8 << 10
	}
	if ff.MinSplit == 0 {
		ff.MinSplit = 32
	}
	ff.initialized = true
}

// freeListInsert links b into the circular free list after the rover.
func (ff *FirstFit) freeListInsert(b *ffBlock) {
	ff.freeBlocks++
	if ff.freeHead == nil {
		b.fNext, b.fPrev = b, b
		ff.freeHead = b
		ff.rover = b
		return
	}
	at := ff.rover
	b.fNext = at.fNext
	b.fPrev = at
	at.fNext.fPrev = b
	at.fNext = b
}

// freeListRemove unlinks b from the circular free list.
func (ff *FirstFit) freeListRemove(b *ffBlock) {
	ff.freeBlocks--
	if b.fNext == b {
		ff.freeHead = nil
		ff.rover = nil
	} else {
		b.fPrev.fNext = b.fNext
		b.fNext.fPrev = b.fPrev
		if ff.freeHead == b {
			ff.freeHead = b.fNext
		}
		if ff.rover == b {
			ff.rover = b.fNext
		}
	}
	b.fNext, b.fPrev = nil, nil
}

// extend grows the heap by at least need bytes (in Chunk multiples),
// merging the new space with a trailing free block when possible.
func (ff *FirstFit) extend(need int64) error {
	growth := align(need, ff.Chunk)
	if err := checkGrowth(ff.name, ff.heapEnd, growth); err != nil {
		return err
	}
	ff.ops.FFExtends++
	if ff.obs != nil {
		ff.obs.extends.Inc()
		ff.obs.col.Emit(obs.EvHeapGrow, growth)
	}
	start := ff.heapEnd
	ff.heapEnd += growth
	if ff.heapEnd > ff.maxHeapEnd {
		ff.maxHeapEnd = ff.heapEnd
	}
	if ff.tail != nil && ff.tail.free {
		ff.tail.size += growth
		return nil
	}
	b := ff.pool.get()
	b.addr, b.size, b.free = start, growth, true
	b.aPrev = ff.tail
	if ff.tail != nil {
		ff.tail.aNext = b
	} else {
		ff.head = b
	}
	ff.tail = b
	ff.freeListInsert(b)
	return nil
}

// Alloc implements Allocator. The predictedShort hint is ignored.
func (ff *FirstFit) Alloc(id trace.ObjectID, size int64, _ bool) error {
	ff.init()
	if err := checkSize(size); err != nil {
		return err
	}
	if _, dup := ff.live.get(id); dup {
		return errDoubleAlloc(ff.name, id)
	}
	need := align(size+ff.Header, ff.Align)

	probesBefore := ff.ops.FFProbes
	b := ff.search(need)
	if b == nil {
		if err := ff.extend(need); err != nil {
			return err
		}
		b = ff.search(need)
		if b == nil {
			return fmt.Errorf("heapsim: internal error: no fit after extend for %d bytes", need)
		}
	}
	ff.ops.Allocs++
	ff.ops.FFAllocs++
	if ff.obs != nil {
		ff.obs.searchLen.Observe(ff.ops.FFProbes - probesBefore)
		ff.obs.allocSize.Observe(size)
	}
	// Allocate from the front of b; keep the tail free when the
	// remainder is worth it.
	if b.size-need >= ff.MinSplit {
		ff.ops.FFSplits++
		if ff.obs != nil {
			ff.obs.splits.Inc()
		}
		rest := ff.pool.get()
		rest.addr, rest.size, rest.free = b.addr+need, b.size-need, true
		rest.aPrev, rest.aNext = b, b.aNext
		if b.aNext != nil {
			b.aNext.aPrev = rest
		} else {
			ff.tail = rest
		}
		b.aNext = rest
		b.size = need
		// The remainder replaces b in the free list at b's position.
		rest.fPrev, rest.fNext = b.fPrev, b.fNext
		if b.fNext == b {
			rest.fPrev, rest.fNext = rest, rest
		} else {
			b.fPrev.fNext = rest
			b.fNext.fPrev = rest
		}
		if ff.freeHead == b {
			ff.freeHead = rest
		}
		if ff.rover == b {
			ff.rover = rest
		}
		b.fNext, b.fPrev = nil, nil
	} else {
		ff.freeListRemove(b)
	}
	b.free = false
	b.payload = size
	ff.live.put(id, b)
	ff.liveBytes += size
	return nil
}

// search walks the circular free list from the rover, counting probes,
// returning the first block that fits or nil after a full cycle. The rover
// is left at the found block (Knuth's A4': the next search resumes here).
func (ff *FirstFit) search(need int64) *ffBlock {
	if ff.rover == nil {
		return nil
	}
	b := ff.rover
	for i := 0; i < ff.freeBlocks; i++ {
		ff.ops.FFProbes++
		if b.size >= need {
			ff.rover = b
			return b
		}
		b = b.fNext
	}
	return nil
}

// Free implements Allocator: O(1) boundary-tag coalescing with both
// address neighbors.
func (ff *FirstFit) Free(id trace.ObjectID) error {
	ff.init()
	b, ok := ff.live.del(id)
	if !ok {
		return errUnknownFree(ff.name, id)
	}
	ff.liveBytes -= b.payload
	ff.ops.Frees++
	ff.ops.FFFrees++
	b.free = true

	// Merge with the previous block.
	if p := b.aPrev; p != nil && p.free {
		ff.ops.FFCoalesces++
		if ff.obs != nil {
			ff.obs.coalesces.Inc()
			ff.obs.col.Emit(obs.EvCoalesce, p.size+b.size)
		}
		p.size += b.size
		p.aNext = b.aNext
		if b.aNext != nil {
			b.aNext.aPrev = p
		} else {
			ff.tail = p
		}
		ff.pool.put(b)
		b = p
	} else {
		ff.freeListInsert(b)
	}
	// Merge with the next block.
	if n := b.aNext; n != nil && n.free {
		ff.ops.FFCoalesces++
		if ff.obs != nil {
			ff.obs.coalesces.Inc()
			ff.obs.col.Emit(obs.EvCoalesce, b.size+n.size)
		}
		ff.freeListRemove(n)
		b.size += n.size
		b.aNext = n.aNext
		if n.aNext != nil {
			n.aNext.aPrev = b
		} else {
			ff.tail = b
		}
		ff.pool.put(n)
	}
	if ff.RoverOnFree {
		ff.rover = b
	}
	return nil
}

// HeapSize returns the current break.
func (ff *FirstFit) HeapSize() int64 { return ff.heapEnd }

// MaxHeapSize returns the high-water mark of the break.
func (ff *FirstFit) MaxHeapSize() int64 { return ff.maxHeapEnd }

// LiveBytes returns the approximate payload bytes currently allocated.
func (ff *FirstFit) LiveBytes() int64 { return ff.liveBytes }

// LiveObjects returns the number of live objects.
func (ff *FirstFit) LiveObjects() int { return ff.live.len() }

// FreeBlocks returns the current free-list length.
func (ff *FirstFit) FreeBlocks() int { return ff.freeBlocks }

// Counts implements Allocator.
func (ff *FirstFit) Counts() OpCounts { return ff.ops }

// Addr implements Allocator.
func (ff *FirstFit) Addr(id trace.ObjectID) (int64, bool) {
	b, ok := ff.live.get(id)
	if !ok {
		return 0, false
	}
	return b.addr + ff.Header, true
}

// CheckInvariants validates the block structures; used by tests.
func (ff *FirstFit) CheckInvariants() error {
	ff.init()
	var prev *ffBlock
	var addr int64
	freeSeen := 0
	for b := ff.head; b != nil; b = b.aNext {
		if b.addr != addr {
			return fmt.Errorf("block at %d, expected %d (gap or overlap)", b.addr, addr)
		}
		if b.size <= 0 {
			return fmt.Errorf("block at %d has size %d", b.addr, b.size)
		}
		if b.aPrev != prev {
			return fmt.Errorf("block at %d has bad aPrev", b.addr)
		}
		if b.free {
			freeSeen++
			if prev != nil && prev.free {
				return fmt.Errorf("adjacent free blocks at %d and %d", prev.addr, b.addr)
			}
		}
		addr += b.size
		prev = b
	}
	if addr != ff.heapEnd {
		return fmt.Errorf("blocks cover %d bytes, heap end is %d", addr, ff.heapEnd)
	}
	if prev != ff.tail {
		return fmt.Errorf("tail pointer stale")
	}
	if freeSeen != ff.freeBlocks {
		return fmt.Errorf("free list count %d, address walk found %d", ff.freeBlocks, freeSeen)
	}
	// Free list must be circular and consistent.
	if ff.freeHead != nil {
		n := 0
		b := ff.freeHead
		for {
			if !b.free {
				return fmt.Errorf("non-free block at %d on free list", b.addr)
			}
			if b.fNext.fPrev != b {
				return fmt.Errorf("free list links broken at %d", b.addr)
			}
			n++
			if n > ff.freeBlocks {
				return fmt.Errorf("free list longer than count %d", ff.freeBlocks)
			}
			b = b.fNext
			if b == ff.freeHead {
				break
			}
		}
		if n != ff.freeBlocks {
			return fmt.Errorf("free list length %d, count %d", n, ff.freeBlocks)
		}
	} else if ff.freeBlocks != 0 {
		return fmt.Errorf("freeBlocks %d with empty list", ff.freeBlocks)
	}
	return nil
}
