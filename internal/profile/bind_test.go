package profile

import (
	"testing"

	"repro/internal/callchain"
	"repro/internal/trace"
)

// allShortTrace trains every policy into calling everything short: each
// of its sites is all short-lived, so even the learned classifier's bias
// says short for a chain it never saw.
func allShortTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return mkTrace(t, []allocSpec{
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "big", "m"}, 48, 100, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
	})
}

// foreignTrace is another execution of the training program: one site
// the training run saw (hot) and two it never did, at the hot site's
// size.
func foreignTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return mkTrace(t, []allocSpec{
		{[]string{"main", "novel", "m"}, 16, 0, 0},
		{[]string{"main", "hot", "m"}, 16, 0, 0},
		{[]string{"main", "other", "m"}, 16, 0, 0},
		{[]string{"main", "novel", "m"}, 16, 0, 0},
	})
}

// TestBindingNeverWrites binds the paper predictor and every zoo policy
// to a foreign table holding chains the oracle's table lacks. Those
// chains are not sites: every policy predicts them long-lived — the
// learned classifier included, which would score them short from their
// features — and neither predicting nor keying them adds a chain or
// function to the oracle's table.
func TestBindingNeverWrites(t *testing.T) {
	cfg := Config{ShortThreshold: 1000}
	for _, zt := range ZooTrainers() {
		t.Run(zt.Name, func(t *testing.T) {
			train := allShortTrace(t)
			o, err := zt.Train(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tb := train.Table
			nc, nf := tb.NumChains(), tb.NumFuncs()

			test := foreignTrace(t)
			bound := BindOracle(o, test.Table)
			keyer, ok := bound.(interface {
				Site(raw callchain.ChainID, size int64) (SiteKey, bool)
			})
			if !ok {
				t.Fatalf("binding %T has no site keys", bound)
			}
			for _, names := range [][]string{{"main", "novel", "m"}, {"main", "other", "m"}} {
				raw, ok := test.Table.Lookup(names...)
				if !ok {
					t.Fatalf("fixture lacks %v", names)
				}
				for _, size := range []int64{16, 24, 50000} {
					if bound.PredictShort(raw, size) {
						t.Errorf("absent chain %v size %d predicted short", names, size)
					}
					if _, short := keyer.Site(raw, size); short {
						t.Errorf("absent chain %v size %d keyed as a short site", names, size)
					}
				}
			}
			// The one shared site still binds, and every policy admits
			// the all-short hot site.
			hot, _ := test.Table.Lookup("main", "hot", "m")
			if !bound.PredictShort(hot, 16) {
				t.Error("present short-lived site lost its verdict")
			}
			if tb.NumChains() != nc || tb.NumFuncs() != nf {
				t.Fatalf("binding wrote the oracle table: chains %d->%d funcs %d->%d",
					nc, tb.NumChains(), nf, tb.NumFuncs())
			}
		})
	}
}

// TestEvaluateCountsAbsentSitesApart: TotalSites counts the evaluated
// execution's own sites, so two chains the predictor never saw are two
// sites, not one "absent" key.
func TestEvaluateCountsAbsentSitesApart(t *testing.T) {
	train := zooTrace(t)
	db, err := Train(train, Config{ShortThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(foreignTrace(t), db.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	if ev.TotalSites != 3 {
		t.Errorf("TotalSites = %d, want 3 (novel, hot, other)", ev.TotalSites)
	}
	if ev.SitesUsed != 1 {
		t.Errorf("SitesUsed = %d, want 1 (hot)", ev.SitesUsed)
	}
}
