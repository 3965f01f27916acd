package core

import (
	"runtime"
	"sync"
)

// FanOut runs a two-level task graph: prep(g) runs once for each of the
// groups, and as soon as it returns n cells, cell(g, c) runs for every
// c in [0, n). At most workers preps and cells run at once; values
// below 1 mean GOMAXPROCS. A group whose prep fails runs no cells; the
// returned slice holds each group's prep error, in group order.
//
// Cells report through slots the caller owns (indexed by g and c), so
// whatever the caller assembles afterwards never depends on which cell
// finished first. The paper tables, the tournament, the matrix runner
// and the cluster scenarios all run on it.
func FanOut(workers, groups int, prep func(g int) (int, error), cell func(g, c int)) []error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, groups)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	// spawn holds a worker slot for the task's duration; goroutines are
	// cheap, so tasks waiting for a slot simply block on the semaphore.
	spawn := func(task func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			task()
		}()
	}
	for g := 0; g < groups; g++ {
		spawn(func() {
			n, err := prep(g)
			if err != nil {
				errs[g] = err
				return
			}
			for c := 0; c < n; c++ {
				spawn(func() { cell(g, c) })
			}
		})
	}
	wg.Wait()
	return errs
}

// ForEach runs f(i) for every i in [0, n) on FanOut's one-group form.
func ForEach(workers, n int, f func(i int)) {
	FanOut(workers, 1, func(int) (int, error) { return n, nil }, func(_, i int) { f(i) })
}
