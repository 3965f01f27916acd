package profile

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/callchain"
	"repro/internal/synth"
	"repro/internal/trace"
)

// refMapper is the mapping rule written out directly: transform the raw
// chain in the foreign table, look the result up by function names in the
// predictor's table, and probe the predictor's key set with the rounded
// size. It keeps no index; a map remembers each chain's binding.
type refMapper struct {
	p     *Predictor
	from  *callchain.Table
	hits  map[SiteKey]struct{}
	bound map[callchain.ChainID]*callchain.ChainID // nil: not in the predictor's table
}

func newRefMapper(p *Predictor, from *callchain.Table) *refMapper {
	return &refMapper{p: p, from: from, hits: map[SiteKey]struct{}{}, bound: map[callchain.ChainID]*callchain.ChainID{}}
}

func (r *refMapper) Site(raw callchain.ChainID, size int64) (SiteKey, bool) {
	id, seen := r.bound[raw]
	if !seen {
		local := r.p.Config.siteChain(r.from, raw)
		var names []string
		for _, f := range r.from.Funcs(local) {
			names = append(names, r.from.FuncName(f))
		}
		if c, ok := r.p.table.Lookup(names...); ok {
			id = &c
		}
		r.bound[raw] = id
	}
	if id == nil {
		return SiteKey{Size: r.p.Config.roundSize(size)}, false
	}
	key := SiteKey{Chain: *id, Size: r.p.Config.roundSize(size)}
	_, ok := r.p.keys[key]
	return key, ok
}

func (r *refMapper) PredictShort(raw callchain.ChainID, size int64) bool {
	key, ok := r.Site(raw, size)
	if ok {
		r.hits[key] = struct{}{}
	}
	return ok
}

// probe is one query put to a mapper.
type probe struct {
	raw  callchain.ChainID
	size int64
}

// edgeSizes are the sizes outside the verdict index's dense range, plus
// its edges: non-positive sizes, the last classes below maxDenseClasses
// and the first past it, and sizes around 2^32.
func edgeSizes(rounding int64) []int64 {
	r := max(rounding, 1)
	top := maxDenseClasses * r
	return []int64{0, -1, -3, -4, -5, -8, math.MinInt64,
		top - r - 1, top - r, top - 1, top, top + 1, top + r,
		1<<32 - 1, 1 << 32, 1<<32 + 1, math.MaxInt64 - 8, math.MaxInt64}
}

// traceProbes returns every allocation of tr, then each distinct chain at
// every edge size, at the class after the largest size it allocated and
// at the first class of the next verdict word.
func traceProbes(tr *trace.Trace, rounding int64) []probe {
	var ps []probe
	largest := map[callchain.ChainID]int64{}
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindAlloc {
			ps = append(ps, probe{ev.Chain, ev.Size})
			largest[ev.Chain] = max(largest[ev.Chain], ev.Size)
		}
	}
	r := max(rounding, 1)
	for ch := callchain.ChainID(0); int(ch) < tr.Table.NumChains(); ch++ {
		if big, ok := largest[ch]; ok {
			cls := (big + r - 1) / r
			for _, s := range append(edgeSizes(rounding), big+r, (cls/64+1)*64*r) {
				ps = append(ps, probe{ch, s})
			}
		}
	}
	return ps
}

// checkMapper puts every probe to a fresh Mapper and to the reference,
// in the same order, and compares PredictShort, Site and SitesMatched.
func checkMapper(t *testing.T, name string, p *Predictor, from *callchain.Table, ps []probe) {
	t.Helper()
	m := p.NewMapper(from)
	ref := newRefMapper(p, from)
	for _, q := range ps {
		gk, gok := m.Site(q.raw, q.size)
		wk, wok := ref.Site(q.raw, q.size)
		if gok != wok || (wok && gk != wk) {
			t.Fatalf("%s: Site(%d, %d) = %+v %v, reference %+v %v", name, q.raw, q.size, gk, gok, wk, wok)
		}
		if got, want := m.PredictShort(q.raw, q.size), ref.PredictShort(q.raw, q.size); got != want {
			t.Fatalf("%s: PredictShort(%d, %d) = %v, reference %v", name, q.raw, q.size, got, want)
		}
	}
	if got, want := m.SitesMatched(), len(ref.hits); got != want {
		t.Fatalf("%s: SitesMatched = %d, reference %d", name, got, want)
	}
}

// TestMapperMatchesReference holds the Mapper's verdict index to the
// reference over every synth model and every site keying: complete
// chains, sub-chains of 1 to 7 callers, size only, at roundings 1, 3, 4
// and 8. Each configuration binds all three kinds of predictor (trained,
// read back from JSON, and merged over two runs) to the Test trace.
func TestMapperMatchesReference(t *testing.T) {
	type mode struct {
		name     string
		chainLen int
		sizeOnly bool
	}
	modes := []mode{{name: "complete"}, {name: "size-only", sizeOnly: true}}
	for n := 1; n <= 7; n++ {
		modes = append(modes, mode{name: fmt.Sprintf("len%d", n), chainLen: n})
	}
	for _, m := range synth.All() {
		gen := func(in synth.Input) *trace.Trace {
			tr, err := m.Generate(synth.Config{Input: in, Seed: 7, Scale: 0.002})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		train, test := gen(synth.Train), gen(synth.Test)
		for _, rounding := range []int64{1, 3, 4, 8} {
			ps := traceProbes(test, rounding)
			for _, md := range modes {
				cfg := Config{ShortThreshold: 32 << 10, SizeRounding: rounding, ChainLength: md.chainLen, SizeOnly: md.sizeOnly}
				db, err := Train(train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var js bytes.Buffer
				if err := db.WriteJSON(&js, m.Name); err != nil {
					t.Fatal(err)
				}
				read, err := ReadPredictor(&js)
				if err != nil {
					t.Fatal(err)
				}
				merged, err := TrainMulti([]*trace.Trace{train, test}, cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/r%d/%s", m.Name, rounding, md.name)
				checkMapper(t, name+"/trained", db.Predictor(), test.Table, ps)
				checkMapper(t, name+"/read", read, test.Table, ps)
				checkMapper(t, name+"/merged", merged, test.Table, ps)
			}
		}
	}
}

// TestMapperSparseSitesAndLateChains covers what the dense index does
// not hold: admitted sites at rounded size 0, at the first class past
// maxDenseClasses and at 2^32 and beyond, decided from the key set; and
// chains interned into the foreign table after NewMapper, which grow the
// binding memo.
func TestMapperSparseSitesAndLateChains(t *testing.T) {
	// 1<<31 rounds sizes up to 2^31 into class 1 and sizes up to 2^32
	// into class 2, whose rounded size the index must leave to the key
	// set.
	for _, rounding := range []int64{1, 3, 4, 8, 1 << 31} {
		cfg := Config{ShortThreshold: 1000, SizeRounding: rounding}
		r := max(rounding, 1)
		hot := []string{"main", "hot", "m"}
		late := []string{"main", "late", "m"}
		var sites []SiteRecord
		for _, size := range []int64{0, 16, maxDenseClasses * r, (maxDenseClasses + 1) * r, 1 << 32, 3 << 32} {
			for _, chain := range [][]string{hot, late} {
				sites = append(sites, SiteRecord{Chain: chain, Size: size, Admitted: true})
			}
		}
		p, err := DBFile{Config: cfg, Sites: sites}.Predictor()
		if err != nil {
			t.Fatal(err)
		}

		from := callchain.NewTable()
		hotID := from.InternNames(hot...)
		m := p.NewMapper(from)
		ref := newRefMapper(p, from)
		lateID := from.InternNames(late...)        // bindable, interned after NewMapper
		novel := from.InternNames("main", "novel") // not a site
		sizes := append(edgeSizes(rounding), 13, 16, 17, (maxDenseClasses+1)*r-1, 3<<32-1, 3<<32)
		for _, raw := range []callchain.ChainID{hotID, lateID, novel, hotID} {
			for _, s := range sizes {
				if got, want := m.PredictShort(raw, s), ref.PredictShort(raw, s); got != want {
					t.Fatalf("r%d: PredictShort(%d, %d) = %v, reference %v", rounding, raw, s, got, want)
				}
				gk, gok := m.Site(raw, s)
				if wk, wok := ref.Site(raw, s); gok != wok || (wok && gk != wk) {
					t.Fatalf("r%d: Site(%d, %d) = %+v %v, reference %+v %v", rounding, raw, s, gk, gok, wk, wok)
				}
			}
		}
		if got, want := m.SitesMatched(), len(ref.hits); got != want || want != 12 {
			t.Fatalf("r%d: SitesMatched = %d, reference %d, want 12 (every admitted site)", rounding, got, want)
		}
	}
}

// TestMapperConcurrentBinding binds one shared Predictor from 8
// goroutines at once, each over the frozen Test table, as the engine's
// cells do. Under -race this checks that binding only reads the
// predictor; every mapper must also reach the reference's verdicts.
func TestMapperConcurrentBinding(t *testing.T) {
	m := synth.ByName("gawk")
	train, err := m.Generate(synth.Config{Input: synth.Train, Seed: 3, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	test, err := m.Generate(synth.Config{Input: synth.Test, Seed: 3, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := db.Predictor()
	train.Table.Freeze()
	test.Table.Freeze()
	ps := traceProbes(test, 4)
	ref := newRefMapper(p, test.Table)
	want := make([]bool, len(ps))
	for i, q := range ps {
		want[i] = ref.PredictShort(q.raw, q.size)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mp := p.NewMapper(test.Table)
			for i, q := range ps {
				if got := mp.PredictShort(q.raw, q.size); got != want[i] {
					errs[g] = fmt.Errorf("goroutine %d: PredictShort(%d, %d) = %v, reference %v", g, q.raw, q.size, got, want[i])
					return
				}
			}
			if mp.SitesMatched() != len(ref.hits) {
				errs[g] = fmt.Errorf("goroutine %d: SitesMatched = %d, reference %d", g, mp.SitesMatched(), len(ref.hits))
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
