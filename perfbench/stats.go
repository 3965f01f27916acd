package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// minP90Samples is the sample count a p90 needs: ten samples beyond it.
const minP90Samples = 100

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 is the 90th percentile, with a warning when fewer than
// minP90Samples samples back it.
func p90(name string, xs []float64) float64 {
	if len(xs) < minP90Samples {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s p90 rests on %d samples (want %d)\n", name, len(xs), minP90Samples)
	}
	return quantile(xs, 0.9)
}

// span accumulates one layer's spans: the host time the layer was busy
// and the work it did in that time (events, calls or operations).
type span struct {
	busy time.Duration
	work int64
}

func (s *span) add(d time.Duration, work int64) {
	s.busy += d
	s.work += work
}

// since closes a span opened at t0.
func (s *span) since(t0 time.Time, work int64) { s.add(time.Since(t0), work) }

// nsPer is the busy time per unit of work, 0 when no work was done.
func (s *span) nsPer() float64 {
	if s.work == 0 {
		return 0
	}
	return float64(s.busy.Nanoseconds()) / float64(s.work)
}

func (s *span) seconds() float64 { return s.busy.Seconds() }

// timedSetup runs setup setupRepeats times and returns the median
// duration in seconds; the last run's state is what the workload uses.
func timedSetup(setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// rounds paces a run's measurement: a round (a pass, a session) starts
// only while the time spent so far plus the last round's length stays
// within the limit, so a run measures for about the limit and never
// overshoots by a round.
type rounds struct {
	start, roundStart time.Time
	limit             time.Duration
	n                 int
}

func newRounds(limit time.Duration) *rounds {
	return &rounds{start: time.Now(), limit: limit}
}

// next reports whether to start another round; the first min rounds
// always start.
func (r *rounds) next(min int) bool {
	now := time.Now()
	var last time.Duration
	if r.n > 0 {
		last = now.Sub(r.roundStart)
	}
	if r.n < min || now.Sub(r.start)+last <= r.limit {
		r.n++
		r.roundStart = now
		return true
	}
	return false
}
