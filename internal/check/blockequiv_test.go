package check

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/callchain"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestBlockEquivalenceAcrossModels replays every synthesis model's test
// trace through all six allocators, block path against the scalar
// oracle, with a trained predictor in play so the pred.* accuracy
// families are compared too. This is the end-to-end guarantee behind the
// columnar refactor: batching changed the engine's inner loop, not one
// observable bit of its output.
func TestBlockEquivalenceAcrossModels(t *testing.T) {
	fs, err := Factories()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range synth.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			trainSrc, err := m.Source(synth.Config{Input: synth.Train, Seed: 7, Scale: 0.005})
			if err != nil {
				t.Fatal(err)
			}
			db, err := profile.TrainSource(trainSrc, profile.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			testSrc, err := m.Source(synth.Config{Input: synth.Test, Seed: 7, Scale: 0.005})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Collect(testSrc)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckBlockEquivalence(tr, fs, db.Predictor().NewMapper(tr.Table)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBlockEquivalenceSiteArenaRoutes: with a trained predictor the
// sitearena factory replays through the per-site route on both the block
// and the scalar path — predicted-short objects spread over more pools
// than the one shared pseudo-site the plain hint would use — and the
// two paths agree byte for byte.
func TestBlockEquivalenceSiteArenaRoutes(t *testing.T) {
	m := synth.ByName("espresso")
	trainSrc, err := m.Source(synth.Config{Input: synth.Train, Seed: 7, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	db, err := profile.TrainSource(trainSrc, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	testSrc, err := m.Source(synth.Config{Input: synth.Test, Seed: 7, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	pred := db.Predictor()
	fs, err := Factories("sitearena")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBlockEquivalence(tr, fs, pred.NewMapper(tr.Table)); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(trace.Source, heapsim.Allocator, profile.Oracle) (core.SimResult, error){
		"block": func(src trace.Source, a heapsim.Allocator, o profile.Oracle) (core.SimResult, error) {
			return core.RunSimOracle(src, a, o)
		},
		"scalar": func(src trace.Source, a heapsim.Allocator, o profile.Oracle) (core.SimResult, error) {
			return replayScalar(src, a, o, nil)
		},
	} {
		sa := heapsim.NewSiteArena()
		if _, err := run(trace.NewSliceSource(tr), sa, pred.NewMapper(tr.Table)); err != nil {
			t.Fatal(err)
		}
		if pools := sa.ArenaArea() / (int64(sa.ArenasPerSite) * sa.ArenaSize); pools < 2 {
			t.Errorf("%s: predicted-short objects used %d site pool(s); the replay did not route per site", name, pools)
		}
	}
}

// TestBlockEquivalenceCatchesDivergence feeds the checker a trace whose
// block and scalar replays must agree, then proves the checker is not
// vacuous by checking a malformed trace: both paths must fail with the
// same error at the same event index.
func TestBlockEquivalenceCatchesDivergence(t *testing.T) {
	fs, err := Factories("firstfit")
	if err != nil {
		t.Fatal(err)
	}
	// A double alloc of the same fresh id is rejected by every allocator;
	// both replay paths must surface the identical "core: event N" error,
	// which the checker counts as agreement, not divergence.
	tr := GenTrace(11, GenConfig{Events: 50})
	chain := tr.Events[0].Chain
	tr.Events = append(tr.Events,
		trace.Event{Kind: trace.KindAlloc, Obj: 999999, Size: 8, Chain: chain},
		trace.Event{Kind: trace.KindAlloc, Obj: 999999, Size: 8, Chain: chain})
	if err := CheckBlockEquivalence(tr, fs, nil); err != nil {
		t.Errorf("matching error paths reported as divergence: %v", err)
	}
	// And a healthy generated trace passes through CheckTrace, which now
	// includes the equivalence layer.
	good := GenTrace(11, GenConfig{Events: 400})
	if err := CheckTrace(good, fs, Options{Stride: 100}); err != nil {
		if strings.Contains(err.Error(), "blockequiv") {
			t.Fatalf("block equivalence failed on a legal trace: %v", err)
		}
		t.Fatal(err)
	}
}

// TestPredictDrivesEquivalence: the Options.Predict hook CheckTrace hands
// to the equivalence replay makes real predictions there — pred.*
// counters move and a SiteArena routes per site — and a nil hook means no
// oracle at all.
func TestPredictDrivesEquivalence(t *testing.T) {
	if Predict(nil).oracle() != nil {
		t.Fatal("nil Predict produced an oracle")
	}
	tr := GenTrace(11, GenConfig{Events: 400})
	col := obs.NewCollector(obs.Options{Label: "predict"})
	sa := heapsim.NewSiteArena()
	if _, err := core.RunSimOracle(trace.NewSliceSource(tr), sa, GenPredict(512).oracle(), col); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if s.Counters["pred.tp_objects"]+s.Counters["pred.fp_objects"] == 0 {
		t.Error("no allocation was predicted short")
	}
	if pools := sa.ArenaArea() / (int64(sa.ArenasPerSite) * sa.ArenaSize); pools < 2 {
		t.Errorf("predicted-short objects used %d site pool(s); want a per-site route", pools)
	}
}

// TestScalarTotalBytesOverflowFails holds the scalar reference replay to
// the engine's overflow check: the event whose size would wrap TotalBytes
// is rejected, at its index, with the engine's error.
func TestScalarTotalBytesOverflowFails(t *testing.T) {
	tb := callchain.NewTable()
	c := tb.InternNames("main", "big")
	size := int64(math.MaxInt64/2 + 1)
	tr := &trace.Trace{Program: "oversize", Table: tb, Events: []trace.Event{
		{Kind: trace.KindAlloc, Obj: 1, Size: size, Chain: c},
		{Kind: trace.KindAlloc, Obj: 2, Size: size, Chain: c},
	}}
	res, err := replayScalar(trace.NewSliceSource(tr), &acceptAll{}, nil, nil)
	if !errors.Is(err, core.ErrTotalBytes) || !strings.Contains(err.Error(), "event 1:") {
		t.Errorf("err = %v, want the total-bytes overflow at event 1", err)
	}
	if res.TotalBytes != size {
		t.Errorf("TotalBytes = %d after the rejected event", res.TotalBytes)
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

// keyless predicts but has no site keys.
type keyless struct{}

func (keyless) PredictShort(callchain.ChainID, int64) bool { return true }
func (keyless) ShortThreshold() int64                      { return 1 << 15 }

// TestScalarSitedRouteNeedsSiteKeys: like the engine, the scalar
// reference refuses to replay a SiteArena under an oracle with no site
// keys, and replays a non-sited allocator under it.
func TestScalarSitedRouteNeedsSiteKeys(t *testing.T) {
	tr := GenTrace(3, GenConfig{Events: 60})
	if _, err := replayScalar(trace.NewSliceSource(tr), heapsim.NewSiteArena(), keyless{}, nil); err == nil {
		t.Fatal("scalar SiteArena replay with a keyless oracle: want error")
	}
	if _, err := replayScalar(trace.NewSliceSource(tr), heapsim.NewFirstFit(), keyless{}, nil); err != nil {
		t.Fatalf("scalar firstfit replay: %v", err)
	}
}
