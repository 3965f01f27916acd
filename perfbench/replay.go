package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// layerSumTolerance bounds core.replay.layer_sum_ratio: the layer spans
// must add up to the fused replay's time within this factor either way,
// or the breakdown is not trusted and the reconciliation counts as
// failed. The layered loop times every block three times and walks each
// block twice, so its sum runs somewhat above the fused loop's time.
const layerSumTolerance = 1.5

// model is one model's replay inputs: the paper's true predictor
// (trained on the Train input) and the Test trace it predicts.
type model struct {
	name string
	pred *profile.Predictor
	test *trace.Trace
	enc  []byte // test in LPTRACE2
	// ref holds, per allocator, the SimResult core.RunSimOracle gives
	// over a SliceSource of test: the reference every replay must equal.
	ref map[string]core.SimResult
}

// setupModels generates, trains and encodes every model's inputs and
// computes the reference results, recording generation and training
// spans in ls.
func setupModels(cfg core.Config, ls *layerSpans) ([]*model, error) {
	var ms []*model
	for _, m := range cfg.Models {
		train, err := generate(m, cfg.GenConfig(synth.Train), ls)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		db, err := profile.TrainSource(trace.NewSliceSource(train), cfg.Profile)
		ls.train.since(t0, int64(len(train.Events)))
		if err != nil {
			return nil, err
		}
		md := &model{name: m.Name, pred: db.Predictor(), ref: map[string]core.SimResult{}}
		if md.test, err = generate(m, cfg.GenConfig(synth.Test), ls); err != nil {
			return nil, err
		}
		if md.enc, err = encode(md.test); err != nil {
			return nil, err
		}
		for _, a := range core.AllocatorNames {
			alloc, err := core.NewAllocator(a)
			if err != nil {
				return nil, err
			}
			res, err := core.RunSimOracle(trace.NewSliceSource(md.test), alloc, md.pred.NewMapper(md.test.Table))
			if err != nil {
				return nil, fmt.Errorf("reference %s/%s: %w", m.Name, a, err)
			}
			md.ref[a] = res
		}
		ms = append(ms, md)
	}
	return ms, nil
}

// generate drains a model's generator into a trace.
func generate(m *synth.Model, gc synth.Config, ls *layerSpans) (*trace.Trace, error) {
	src, err := m.Source(gc)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr, err := trace.Collect(src)
	if err != nil {
		return nil, err
	}
	ls.generate.since(t0, int64(len(tr.Events)))
	return tr, nil
}

// encode writes a trace as an LPTRACE2 stream.
func encode(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	src := trace.NewSliceSource(tr)
	w, err := trace.NewWriter(&buf, src.Meta(), tr.Table)
	if err != nil {
		return nil, err
	}
	for _, ev := range tr.Events {
		if err := w.Write(ev); err != nil {
			return nil, err
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// events is the number of events one pass over every cell replays.
func events(ms []*model) int {
	n := 0
	for _, m := range ms {
		n += len(m.test.Events) * len(core.AllocatorNames)
	}
	return n
}

// replayCell decodes a model's Test trace and replays it through a fresh
// allocator, exactly as a user replaying an LPTRACE2 file does.
func replayCell(m *model, allocName string) (core.SimResult, error) {
	rd, err := trace.NewReader(bytes.NewReader(m.enc))
	if err != nil {
		return core.SimResult{}, err
	}
	alloc, err := core.NewAllocator(allocName)
	if err != nil {
		return core.SimResult{}, err
	}
	return core.RunSimOracle(rd, alloc, m.pred.NewMapper(rd.Table()))
}

// sameResult reports how got differs from the reference, nil if not.
func sameResult(cell string, got core.SimResult, err error, want core.SimResult) error {
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	if got.Obs != nil || want.Obs != nil {
		var a, b bytes.Buffer
		if got.Obs == nil || want.Obs == nil {
			return fmt.Errorf("%s: snapshot present on one side only", cell)
		}
		if err := obs.WriteJSON(&a, got.Obs); err != nil {
			return err
		}
		if err := obs.WriteJSON(&b, want.Obs); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("%s: observability snapshot differs from core.RunSimOracle's", cell)
		}
		got.Obs, want.Obs = nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: SimResult %+v, core.RunSimOracle gives %+v", cell, got, want)
	}
	return nil
}

func runReplay(o opts) (*outcome, error) {
	out := newOutcome()
	cfg := experimentConfig(o.seed)
	ls := newLayerSpans()
	var ms []*model
	setup, err := timedSetup(func() error {
		ls = newLayerSpans()
		var err error
		ms, err = setupModels(cfg, ls)
		return err
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return replayTraced(o, out, ms, ls)
	}
	var walls, lat []float64
	for r := newRounds(o.seconds); r.next(4); {
		t0 := time.Now()
		for _, m := range ms {
			for _, a := range core.AllocatorNames {
				c0 := time.Now()
				res, err := replayCell(m, a)
				lat = append(lat, time.Since(c0).Seconds())
				if err := sameResult(m.name+"/"+a, res, err, m.ref[a]); err != nil {
					out.mismatch = true
					out.check(err)
				} else {
					out.check(nil)
				}
			}
		}
		walls = append(walls, time.Since(t0).Seconds())
		if out.mismatch {
			break
		}
	}
	wall := median(walls)
	cells := len(ms) * len(core.AllocatorNames)
	out.metrics["setup_s"] = setup
	out.metrics["wall_s"] = wall
	out.metrics["events_per_s"] = float64(events(ms)) / wall
	out.metrics["jobs_per_s"] = float64(cells) / wall
	out.metrics["job_latency_p50_s"] = median(lat)
	out.metrics["job_latency_p90_s"] = p90("job_latency", lat)
	out.metrics["peak_rss_mb"] = selfPeakRSSMB()
	fmt.Fprintf(os.Stderr, "replay: %d passes of %d cells, %d events per pass\n", len(walls), cells, events(ms))
	return out, nil
}

// replayTraced alternates, cell by cell, the fused replay
// (core.RunSimOracle, timed whole) with the benchmark's layer-by-layer
// loop, and reports each layer's share.
func replayTraced(o opts, out *outcome, ms []*model, setupSpans *layerSpans) (*outcome, error) {
	ls := newLayerSpans()
	var fused span
	passes := 0
	for r := newRounds(o.seconds); r.next(1); {
		for _, m := range ms {
			for _, a := range core.AllocatorNames {
				cell := m.name + "/" + a
				t0 := time.Now()
				res, err := replayCell(m, a)
				fused.since(t0, int64(len(m.test.Events)))
				out.check(sameResult(cell, res, err, m.ref[a]))

				rd, err := trace.NewReader(bytes.NewReader(m.enc))
				if err != nil {
					return nil, err
				}
				res, err = replayLayered(rd, a, m.pred.NewMapper(rd.Table()), ls)
				out.check(sameResult(cell+" layered", res, err, m.ref[a]))
			}
		}
		passes++
	}
	if out.failed > 0 {
		out.mismatch = true
	}
	m := out.metrics
	ls.report(m, passes)
	m["trace.decode.ns_per_event"] = ls.source.nsPer()
	m["trace.decode.busy_s"] = ls.source.seconds() / float64(passes)
	m["synth.generate.ns_per_event"] = setupSpans.generate.nsPer()
	m["profile.train.ns_per_event"] = setupSpans.train.nsPer()
	m["core.replay.ns_per_event"] = fused.nsPer()
	layered := ls.source.busy + ls.predict.busy + ls.allocBusy()
	reconcile(out, layered, fused.busy)
	m["tracing.untraced_wall_s"] = fused.seconds() / float64(passes)
	m["tracing.traced_wall_s"] = layered.Seconds() / float64(passes)
	m["tracing.overhead_frac"] = layered.Seconds()/fused.seconds() - 1
	return out, nil
}

// reconcile records core.replay.layer_sum_ratio and checks it against
// layerSumTolerance, counting the check as one operation.
func reconcile(out *outcome, layered, fused time.Duration) {
	ratio := layered.Seconds() / fused.Seconds()
	out.metrics["core.replay.layer_sum_ratio"] = ratio
	var err error
	if ratio > layerSumTolerance || ratio < 1/layerSumTolerance {
		err = fmt.Errorf("layer spans sum to %.3f of the fused replay time (tolerance x%.2f)", ratio, layerSumTolerance)
	}
	out.check(err)
}

// layerSpans are the spans of the layer-by-layer replay loop.
type layerSpans struct {
	generate, train span // replay set-up
	source          span // NextBlock: decode, or generate on serve
	predict         span // Mapper.PredictShort over the block's allocs
	alloc           map[string]*span
	observed        span // allocate and ReplayTracker.Step, interleaved
	finish          span // ReplayTracker.Finish
	failedOps       int
}

func newLayerSpans() *layerSpans {
	ls := &layerSpans{alloc: map[string]*span{}}
	for _, a := range core.AllocatorNames {
		ls.alloc[a] = &span{}
	}
	return ls
}

func (ls *layerSpans) allocBusy() time.Duration {
	var d time.Duration
	for _, s := range ls.alloc {
		d += s.busy
	}
	return d
}

// report writes the layer metrics the replay and serve workloads share.
func (ls *layerSpans) report(m map[string]float64, passes int) {
	m["profile.predict.ns_per_call"] = ls.predict.nsPer()
	m["profile.predict.busy_s"] = ls.predict.seconds() / float64(passes)
	for _, a := range core.AllocatorNames {
		m["heapsim."+a+".ns_per_op"] = ls.alloc[a].nsPer()
		m["heapsim."+a+".busy_s"] = ls.alloc[a].seconds() / float64(passes)
	}
	m["heapsim.failed_ops"] = float64(ls.failedOps)
}

// replayLayered replays src through a fresh allocator with the layered
// loop and no observation.
func replayLayered(src trace.BlockSource, allocName string, oracle profile.Oracle, ls *layerSpans) (core.SimResult, error) {
	alloc, err := core.NewAllocator(allocName)
	if err != nil {
		return core.SimResult{}, err
	}
	return replayBlocks(src, alloc, allocName, oracle, nil, ls)
}

// replayBlocks is core.RunSimOracle taken apart at its layer boundaries:
// each block is fetched (decode or generate), predicted for every
// allocation, then allocated, each step under its own span. With a
// tracker the allocate step also observes each event, interleaved as
// RunSimOracle does, under the observed span instead. The SimResult must
// equal RunSimOracle's for the same source, oracle and allocator.
func replayBlocks(src trace.BlockSource, alloc heapsim.Allocator, allocName string, oracle profile.Oracle, rt *core.ReplayTracker, ls *layerSpans) (core.SimResult, error) {
	var res core.SimResult
	blk := trace.NewEventBlock(trace.DefaultBlockLen)
	short := make([]bool, blk.Cap())
	allocSpan := ls.alloc[allocName]
	if rt != nil {
		allocSpan = &ls.observed
	}
	for base := 0; ; base += blk.N {
		t0 := time.Now()
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		n := blk.N
		ls.source.since(t0, int64(n))
		kinds, objs, sizes, chains := blk.Kinds[:n], blk.Objs[:n], blk.Sizes[:n], blk.Chains[:n]

		t1 := time.Now()
		calls := 0
		for k := 0; k < n; k++ {
			short[k] = false
			if kinds[k] == trace.KindAlloc {
				short[k] = oracle.PredictShort(chains[k], sizes[k])
				calls++
			}
		}
		ls.predict.since(t1, int64(calls))

		t2 := time.Now()
		for k := 0; k < n; k++ {
			switch kinds[k] {
			case trace.KindAlloc:
				if err := alloc.Alloc(objs[k], sizes[k], short[k]); err != nil {
					ls.failedOps++
					return res, fmt.Errorf("event %d: %w", base+k, err)
				}
				res.TotalAllocs++
				res.TotalBytes += sizes[k]
			case trace.KindFree:
				if err := alloc.Free(objs[k]); err != nil {
					ls.failedOps++
					return res, fmt.Errorf("event %d: %w", base+k, err)
				}
			default:
				return res, fmt.Errorf("event %d: bad kind %d", base+k, kinds[k])
			}
			if rt != nil {
				rt.Step(blk.Event(k), short[k])
			}
		}
		allocSpan.since(t2, int64(n))
	}
	core.FinishSim(&res, alloc)
	if rt != nil {
		t0 := time.Now()
		res.Obs = rt.Finish(src.Meta().Program, src.Table())
		ls.finish.since(t0, 1)
	}
	return res, nil
}
