// Package heapsim simulates the three dynamic-storage allocators the paper
// compares (§5):
//
//   - FirstFit: Knuth's first-fit with the roving-pointer enhancement
//     (Algorithm A with A4', i.e. next-fit), boundary-tag style O(1)
//     coalescing on free, and sbrk-style heap growth. The paper's baseline
//     and the arena allocator's general-purpose fallback.
//   - BSD: the 4.2BSD (Kingsley) power-of-two segregated free-list malloc,
//     which never splits or coalesces. Used in the Table 9 CPU comparison.
//   - Arena: the paper's lifetime-predicting allocator — a small set of
//     fixed-size arenas for predicted-short-lived objects (bump-pointer
//     allocation, per-arena live counts, arena reuse when a count drops to
//     zero) over a FirstFit general heap.
//
// The simulators model the *address space and operation counts*, not the
// bytes themselves: objects are identified by trace object ids, and every
// allocator reports OpCounts from which the instruction cost model
// (internal/costmodel) computes Table 9's per-operation instruction
// averages, as well as heap-size statistics for Table 8.
package heapsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Allocator is the common simulator interface. PredictedShort is ignored
// by allocators that do not use lifetime prediction.
type Allocator interface {
	// Alloc places an object. The same id must not be live twice.
	Alloc(id trace.ObjectID, size int64, predictedShort bool) error
	// Free releases a live object.
	Free(id trace.ObjectID) error
	// HeapSize returns the current total address-space footprint in
	// bytes, and MaxHeapSize the high-water mark.
	HeapSize() int64
	MaxHeapSize() int64
	// Counts returns the accumulated operation counts.
	Counts() OpCounts
	// Addr reports the address at which a live object's payload was
	// placed (for locality modeling) and whether the object is live.
	Addr(id trace.ObjectID) (int64, bool)
}

// OpCounts accumulates the operation-level events the cost model prices.
type OpCounts struct {
	Allocs int64
	Frees  int64

	// First-fit search behaviour.
	FFAllocs    int64 // allocations served by the first-fit heap
	FFFrees     int64
	FFProbes    int64 // free blocks examined across all searches
	FFExtends   int64 // heap extensions
	FFSplits    int64
	FFCoalesces int64 // neighbor merges performed by free

	// BSD behaviour.
	BSDCarves    int64 // page carves (free list refills)
	BSDBucketSum int64 // sum of bucket indices, for size-dependent cost

	// Segregated-fit behaviour.
	SegCarves int64 // slab carves (class free-list refills)

	// Arena behaviour.
	PredChecks     int64 // prediction lookups performed (every alloc)
	ArenaAllocs    int64 // bump allocations into an arena
	ArenaFrees     int64 // frees that only decremented a count
	ArenaResets    int64 // arena reuses (count reached 0 and reselected)
	ArenaScanSteps int64 // arenas examined while hunting a free arena
	ArenaFallbacks int64 // predicted-short allocs that fell back to the heap
	ArenaDemotions int64 // sites whose prediction was revoked online
	ArenaBytes     int64 // payload bytes placed in arenas
	GeneralBytes   int64 // payload bytes placed in the general heap
	ArenaObjects   int64 // == ArenaAllocs (kept for clarity in reports)
}

// Observable is implemented by simulators that can stream metrics and
// structured events into an obs.Collector. Attaching a nil collector
// detaches observation; the disabled path costs one pointer compare per
// hook. core.RunSim attaches its optional collector through this
// interface, so custom Allocator implementations opt in by implementing
// it.
type Observable interface {
	Observe(*obs.Collector)
}

// errors shared by the simulators. Each carries the allocator's name so
// multi-allocator comparison runs report which simulator rejected the
// event.
func errDoubleAlloc(alloc string, id trace.ObjectID) error {
	return fmt.Errorf("heapsim: %s: object %d allocated while already live", alloc, id)
}

func errUnknownFree(alloc string, id trace.ObjectID) error {
	return fmt.Errorf("heapsim: %s: free of unknown object %d", alloc, id)
}

// MaxHeapBytes is the extent every simulated heap region may reach: the
// general heap spans [0, ArenaBase), and the arena, custom-slab and
// site-pool windows start at 2^40, 2^41 and 2^42, so a region grown past
// 2^40 bytes would run into the next one. A request that cannot fit in
// it, or a heap growth that would pass it, is rejected with an error
// instead of wrapping the int64 address arithmetic.
const MaxHeapBytes = ArenaBase

// checkSize rejects a request no simulator can place. Every Alloc calls
// it first, so the size arithmetic after it cannot overflow. It stays
// small enough to inline; badSize builds the error off the hot path.
func checkSize(size int64) error {
	if size <= 0 || size > MaxHeapBytes {
		return badSize(size)
	}
	return nil
}

func badSize(size int64) error {
	if size <= 0 {
		return fmt.Errorf("heapsim: non-positive allocation size %d", size)
	}
	return fmt.Errorf("heapsim: allocation size %d exceeds the %d-byte address space", size, MaxHeapBytes)
}

// checkGrowth rejects growing a heap region that currently ends at end
// (relative to its base) by growth bytes past MaxHeapBytes.
func checkGrowth(alloc string, end, growth int64) error {
	if growth > MaxHeapBytes-end {
		return fmt.Errorf("heapsim: %s: growing the heap from %d by %d bytes passes the %d-byte address space",
			alloc, end, growth, MaxHeapBytes)
	}
	return nil
}

func align(n, a int64) int64 { return (n + a - 1) / a * a }
