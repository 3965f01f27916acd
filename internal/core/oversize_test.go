package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/callchain"
	"repro/internal/heapsim"
	"repro/internal/trace"
)

// twoAllocs is a two-event trace: two live objects of the same size.
func twoAllocs(size int64) *trace.Trace {
	tb := callchain.NewTable()
	c := tb.InternNames("main", "big")
	return &trace.Trace{Program: "oversize", Table: tb, Events: []trace.Event{
		{Kind: trace.KindAlloc, Obj: 1, Size: size, Chain: c},
		{Kind: trace.KindAlloc, Obj: 2, Size: size, Chain: c},
	}}
}

// TestOversizedAllocationsFail replays two allocations of a size no
// simulated address space holds through every simulator — 2^62 and
// MaxInt64 are each too large alone, and two objects of just over half
// the address space fail when the heap grows for the second. Each replay
// must end in an error: not hang (a BSD carve of a 1<<63 chunk never
// terminates), and not succeed with a wrapped byte count.
func TestOversizedAllocationsFail(t *testing.T) {
	sims := []struct {
		name string
		mk   func() heapsim.Allocator
	}{
		{"firstfit", func() heapsim.Allocator { return heapsim.NewFirstFit() }},
		{"bestfit", func() heapsim.Allocator { return heapsim.NewBestFit() }},
		{"bsd", func() heapsim.Allocator { return heapsim.NewBSD() }},
		{"arena", func() heapsim.Allocator { return heapsim.NewArena() }},
		{"segfit", func() heapsim.Allocator { return heapsim.NewSegFit() }},
		{"sitearena", func() heapsim.Allocator { return heapsim.NewSiteArena() }},
		{"custom", func() heapsim.Allocator { return heapsim.NewCustom([]int64{16, 32}) }},
	}
	for _, sim := range sims {
		for _, size := range []int64{1 << 62, math.MaxInt64, heapsim.MaxHeapBytes/2 + 1} {
			sim, size := sim, size
			t.Run(fmt.Sprintf("%s/%d", sim.name, size), func(t *testing.T) {
				type outcome struct {
					res SimResult
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := RunSim(twoAllocs(size), sim.mk(), nil)
					done <- outcome{res, err}
				}()
				select {
				case o := <-done:
					if o.err == nil {
						t.Fatalf("replay accepted two %d-byte objects: TotalBytes=%d MaxHeap=%d",
							size, o.res.TotalBytes, o.res.MaxHeap)
					}
					if !strings.Contains(o.err.Error(), "address space") {
						t.Errorf("error does not name the address space: %v", o.err)
					}
					if o.res.TotalBytes < 0 || o.res.MaxHeap < 0 {
						t.Errorf("negative totals after the error: %+v", o.res)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("replay did not return within 10s")
				}
			})
		}
	}
}

// acceptAll places every request at address 0: a stand-in allocator that
// lets the replay's own byte accounting be driven past int64.
type acceptAll struct{ n int64 }

func (a *acceptAll) Alloc(trace.ObjectID, int64, bool) error { a.n++; return nil }
func (a *acceptAll) Free(trace.ObjectID) error               { return nil }
func (a *acceptAll) HeapSize() int64                         { return 0 }
func (a *acceptAll) MaxHeapSize() int64                      { return 0 }
func (a *acceptAll) Counts() heapsim.OpCounts                { return heapsim.OpCounts{Allocs: a.n} }
func (a *acceptAll) Addr(trace.ObjectID) (int64, bool)       { return 0, false }

// TestTotalBytesOverflowFails pins the replay's own overflow check: the
// event whose size would wrap TotalBytes is rejected, at its index. The
// check package holds its scalar reference replay to the same case.
func TestTotalBytesOverflowFails(t *testing.T) {
	tr := twoAllocs(math.MaxInt64/2 + 1)
	res, err := RunSim(tr, &acceptAll{}, nil)
	if !errors.Is(err, ErrTotalBytes) || !strings.Contains(err.Error(), "event 1:") {
		t.Errorf("err = %v, want the total-bytes overflow at event 1", err)
	}
	if res.TotalBytes != math.MaxInt64/2+1 {
		t.Errorf("TotalBytes = %d after the rejected event", res.TotalBytes)
	}
}
