package check

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/callchain"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// CheckBlockEquivalence proves the batched replay path is observationally
// identical to the scalar one: for every factory it replays tr twice —
// once through core.RunSimOracle (the block-driven engine) and once
// through replayScalar (the event-at-a-time reference) — and requires
// exact agreement on the SimResult and on the full observed snapshot,
// serialized to JSON and compared byte for byte. That covers every
// counter, histogram, timeline sample, phase mark, and pred.* accuracy
// family, so any drift the batching could introduce (a mis-offset event
// index, a dropped observation at a block boundary, a reordered
// prediction) fails loudly instead of skewing results.
//
// oracle may be nil (no prediction); pass one that speaks tr's chain
// table (a Mapper, or any profile.BindOracle result) to also exercise the
// predicted-short plumbing, the per-site SiteArena route, and the pred.*
// confusion families.
func CheckBlockEquivalence(tr *trace.Trace, fs []Factory, oracle profile.Oracle) error {
	for _, f := range fs {
		run := func(scalar bool) (core.SimResult, []byte, error) {
			col := obs.NewCollector(obs.Options{Label: "blockequiv/" + f.Name})
			src := trace.NewSliceSource(tr)
			var res core.SimResult
			var err error
			if scalar {
				res, err = replayScalar(src, f.New(), oracle, col)
			} else {
				res, err = core.RunSimOracle(src, f.New(), oracle, col)
			}
			if err != nil {
				return res, nil, err
			}
			var buf bytes.Buffer
			if err := obs.WriteJSON(&buf, col.Snapshot()); err != nil {
				return res, nil, err
			}
			return res, buf.Bytes(), nil
		}
		sres, ssnap, serr := run(true)
		bres, bsnap, berr := run(false)
		// The two paths must agree on failure too: same error or none.
		if (serr == nil) != (berr == nil) || (serr != nil && serr.Error() != berr.Error()) {
			return fmt.Errorf("%s: block/scalar error divergence: scalar=%v block=%v", f.Name, serr, berr)
		}
		if serr != nil {
			continue
		}
		if !reflect.DeepEqual(sres, bres) {
			return fmt.Errorf("%s: SimResult diverged between scalar and block replay:\nscalar: %+v\nblock:  %+v", f.Name, sres, bres)
		}
		if !bytes.Equal(ssnap, bsnap) {
			return fmt.Errorf("%s: observed snapshot diverged between scalar and block replay (%d vs %d bytes)", f.Name, len(ssnap), len(bsnap))
		}
	}
	return nil
}

// replayScalar is the one-event-at-a-time reference replay the block
// engine is differentially tested against. It shares the engine's
// placement step and tracker, so what the comparison checks is the block
// walk itself. Its errors carry the engine's "core: event N" wording so
// that equal failures compare equal.
func replayScalar(src trace.Source, alloc heapsim.Allocator, oracle profile.Oracle, col *obs.Collector) (core.SimResult, error) {
	rt := core.NewSourceTracker(src, alloc, oracle, col)
	var res core.SimResult
	place, err := core.NewPlacement(alloc, oracle)
	if err != nil {
		return res, err
	}
	for i := 0; ; i++ {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		short := false
		switch ev.Kind {
		case trace.KindAlloc:
			if ev.Size > math.MaxInt64-res.TotalBytes {
				return res, fmt.Errorf("core: event %d: %w", i, core.ErrTotalBytes)
			}
			if short, err = place.Alloc(ev.Obj, ev.Size, ev.Chain); err != nil {
				return res, fmt.Errorf("core: event %d: %w", i, err)
			}
			res.TotalAllocs++
			res.TotalBytes += ev.Size
		case trace.KindFree:
			if err := alloc.Free(ev.Obj); err != nil {
				return res, fmt.Errorf("core: event %d: %w", i, err)
			}
		default:
			return res, fmt.Errorf("core: event %d: bad kind %d", i, ev.Kind)
		}
		rt.Step(ev, short)
	}
	core.FinishSim(&res, alloc)
	res.Obs = rt.Finish(src.Meta().Program, src.Table())
	return res, nil
}

// oracle lifts the hook to the profile.Oracle the replay engine takes;
// nil for a nil hook. Sites are keyed by raw chain and exact size, so a
// SiteArena routes per site under the hook's verdicts.
func (p Predict) oracle() profile.Oracle {
	if p == nil {
		return nil
	}
	return predictOracle(p)
}

type predictOracle Predict

func (p predictOracle) PredictShort(chain callchain.ChainID, size int64) bool { return p(chain, size) }

func (p predictOracle) ShortThreshold() int64 { return profile.DefaultConfig().ShortThreshold }

func (p predictOracle) Site(chain callchain.ChainID, size int64) (profile.SiteKey, bool) {
	return profile.SiteKey{Chain: chain, Size: size}, p(chain, size)
}
