package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOutRunsEveryCellOnceWithinBound drives groups of different
// sizes and checks the scheduler's contract: each cell runs exactly
// once, never before its group's prep has returned, and no more than
// workers tasks (preps and cells together) ever run at once.
func TestFanOutRunsEveryCellOnceWithinBound(t *testing.T) {
	sizes := []int{3, 0, 7, 1, 5}
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var running, high atomic.Int64
			enter := func() {
				n := running.Add(1)
				for {
					h := high.Load()
					if n <= h || high.CompareAndSwap(h, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond) // let tasks overlap
			}
			prepDone := make([]atomic.Bool, len(sizes))
			runs := make([][]atomic.Int64, len(sizes))
			for g, n := range sizes {
				runs[g] = make([]atomic.Int64, n)
			}
			var early atomic.Int64
			errs := FanOut(workers, len(sizes), func(g int) (int, error) {
				enter()
				defer running.Add(-1)
				prepDone[g].Store(true)
				return sizes[g], nil
			}, func(g, c int) {
				enter()
				defer running.Add(-1)
				if !prepDone[g].Load() {
					early.Add(1)
				}
				runs[g][c].Add(1)
			})
			if len(errs) != len(sizes) {
				t.Fatalf("errs = %v, want one slot per group", errs)
			}
			for g, err := range errs {
				if err != nil {
					t.Errorf("group %d: %v", g, err)
				}
			}
			for g := range runs {
				for c := range runs[g] {
					if n := runs[g][c].Load(); n != 1 {
						t.Errorf("cell (%d,%d) ran %d times", g, c, n)
					}
				}
			}
			if n := early.Load(); n != 0 {
				t.Errorf("%d cells started before their group's prep returned", n)
			}
			if h := high.Load(); h > int64(workers) {
				t.Errorf("%d tasks ran at once, bound is %d", h, workers)
			}
		})
	}
}

// TestFanOutPrepErrors: a group whose prep fails runs none of its
// cells, the other groups run all of theirs, and the errors come back
// indexed by group.
func TestFanOutPrepErrors(t *testing.T) {
	errOdd := errors.New("odd group")
	var mu sync.Mutex
	ran := map[int]int{}
	errs := FanOut(2, 4, func(g int) (int, error) {
		if g%2 == 1 {
			return 3, fmt.Errorf("group %d: %w", g, errOdd)
		}
		return 3, nil
	}, func(g, c int) {
		mu.Lock()
		ran[g]++
		mu.Unlock()
	})
	for g, err := range errs {
		if g%2 == 1 {
			if !errors.Is(err, errOdd) || err.Error() != fmt.Sprintf("group %d: odd group", g) {
				t.Errorf("group %d: err = %v", g, err)
			}
			if ran[g] != 0 {
				t.Errorf("failed group %d ran %d cells", g, ran[g])
			}
			continue
		}
		if err != nil {
			t.Errorf("group %d: err = %v", g, err)
		}
		if ran[g] != 3 {
			t.Errorf("group %d ran %d cells, want 3", g, ran[g])
		}
	}
}

// TestFanOutDefaultWorkers: a worker count below 1 means GOMAXPROCS and
// still runs everything; ForEach is the one-group form.
func TestFanOutDefaultWorkers(t *testing.T) {
	for _, workers := range []int{0, -3} {
		var n atomic.Int64
		ForEach(workers, 50, func(int) { n.Add(1) })
		if n.Load() != 50 {
			t.Errorf("workers=%d: ran %d of 50", workers, n.Load())
		}
	}
	var n atomic.Int64
	ForEach(4, 0, func(int) { n.Add(1) })
	if n.Load() != 0 {
		t.Errorf("empty ForEach ran %d", n.Load())
	}
}
