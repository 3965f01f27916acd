package heapsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// BestFit simulates a best-fit allocator over the same block structures as
// FirstFit: every allocation scans the whole free list and takes the block
// with the least leftover space. Knuth discusses best fit alongside first
// fit (TAOCP §2.5); it trades much longer searches for tighter packing,
// which makes it a useful ablation baseline against both first-fit
// variants (see BenchmarkAblationFitPolicy).
type BestFit struct {
	ff FirstFit // reuse the block/list machinery
}

// NewBestFit returns a best-fit simulator with the default geometry.
func NewBestFit() *BestFit {
	b := &BestFit{}
	b.init()
	return b
}

// init names the embedded machinery before its defaults latch, so errors
// and metrics say "bestfit" rather than "firstfit".
func (b *BestFit) init() {
	if !b.ff.initialized {
		b.ff.name = "bestfit"
	}
	b.ff.init()
}

// Observe implements Observable.
func (b *BestFit) Observe(col *obs.Collector) {
	b.init()
	b.ff.Observe(col)
}

// Alloc implements Allocator; the predictedShort hint is ignored.
func (b *BestFit) Alloc(id trace.ObjectID, size int64, _ bool) error {
	b.init()
	if err := checkSize(size); err != nil {
		return err
	}
	if _, dup := b.ff.live.get(id); dup {
		return errDoubleAlloc(b.ff.name, id)
	}
	need := align(size+b.ff.Header, b.ff.Align)

	probesBefore := b.ff.ops.FFProbes
	blk := b.search(need)
	if blk == nil {
		if err := b.ff.extend(need); err != nil {
			return err
		}
		blk = b.search(need)
		if blk == nil {
			return fmt.Errorf("heapsim: internal error: no fit after extend for %d bytes", need)
		}
	}
	b.ff.ops.Allocs++
	b.ff.ops.FFAllocs++
	if b.ff.obs != nil {
		b.ff.obs.searchLen.Observe(b.ff.ops.FFProbes - probesBefore)
		b.ff.obs.allocSize.Observe(size)
	}
	return b.commit(id, size, need, blk)
}

// commit performs the split/remove bookkeeping (mirrors FirstFit.Alloc's
// tail after a successful search).
func (b *BestFit) commit(id trace.ObjectID, size, need int64, blk *ffBlock) error {
	ff := &b.ff
	if blk.size-need >= ff.MinSplit {
		ff.ops.FFSplits++
		if ff.obs != nil {
			ff.obs.splits.Inc()
		}
		rest := ff.pool.get()
		rest.addr, rest.size, rest.free = blk.addr+need, blk.size-need, true
		rest.aPrev, rest.aNext = blk, blk.aNext
		if blk.aNext != nil {
			blk.aNext.aPrev = rest
		} else {
			ff.tail = rest
		}
		blk.aNext = rest
		blk.size = need
		rest.fPrev, rest.fNext = blk.fPrev, blk.fNext
		if blk.fNext == blk {
			rest.fPrev, rest.fNext = rest, rest
		} else {
			blk.fPrev.fNext = rest
			blk.fNext.fPrev = rest
		}
		if ff.freeHead == blk {
			ff.freeHead = rest
		}
		if ff.rover == blk {
			ff.rover = rest
		}
		blk.fNext, blk.fPrev = nil, nil
	} else {
		ff.freeListRemove(blk)
	}
	blk.free = false
	blk.payload = size
	ff.live.put(id, blk)
	ff.liveBytes += size
	return nil
}

// search scans the entire free list for the tightest fit, counting every
// probe (best fit pays for its packing with full scans).
func (b *BestFit) search(need int64) *ffBlock {
	ff := &b.ff
	if ff.freeHead == nil {
		return nil
	}
	var best *ffBlock
	blk := ff.freeHead
	for i := 0; i < ff.freeBlocks; i++ {
		ff.ops.FFProbes++
		if blk.size >= need && (best == nil || blk.size < best.size) {
			best = blk
			if blk.size == need {
				break // exact fit: cannot do better
			}
		}
		blk = blk.fNext
	}
	return best
}

// Free implements Allocator (same O(1) coalescing as FirstFit).
func (b *BestFit) Free(id trace.ObjectID) error {
	b.init()
	return b.ff.Free(id)
}

// HeapSize implements Allocator.
func (b *BestFit) HeapSize() int64 { return b.ff.HeapSize() }

// MaxHeapSize implements Allocator.
func (b *BestFit) MaxHeapSize() int64 { return b.ff.MaxHeapSize() }

// Counts implements Allocator.
func (b *BestFit) Counts() OpCounts { return b.ff.Counts() }

// Addr implements Allocator.
func (b *BestFit) Addr(id trace.ObjectID) (int64, bool) { return b.ff.Addr(id) }

// CheckInvariants validates the underlying block structures.
func (b *BestFit) CheckInvariants() error { return b.ff.CheckInvariants() }
