// Package profile implements the paper's lifetime-prediction machinery:
// training a per-allocation-site lifetime database from a trace (§4.1),
// selecting the sites whose objects were all short-lived as predictors
// (§4), mapping training sites onto a different execution's sites with
// 4-byte size rounding (§4, "true prediction"), and evaluating a predictor
// against a trace to produce the Table 4/5/6 metrics.
//
// An allocation site is a (call-chain, size) pair. The call-chain used for
// the site key is configurable: the complete chain with recursion cycles
// eliminated (the paper's infinity case), a length-N sub-chain without
// elimination (Table 6's rows), or no chain at all (Table 5's size-only
// predictor).
package profile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/callchain"
	"repro/internal/quantile"
	"repro/internal/trace"
)

// Config controls site keying and predictor admission.
type Config struct {
	// ShortThreshold is the lifetime (bytes allocated) below which an
	// object counts as short-lived. The paper fixes 32 kilobytes.
	ShortThreshold int64

	// SizeRounding rounds object sizes up to a multiple of this value
	// when forming site keys, which is what lets corresponding sites map
	// across runs (§4: "by rounding the object size to a multiple of
	// four bytes, we found the corresponding sites were more likely to
	// map correctly"). The paper uses 4.
	SizeRounding int64

	// ChainLength selects the call-chain abstraction: 0 uses the
	// complete chain with recursion elimination; N > 0 uses the last N
	// callers without elimination (matching the paper's note that the
	// infinity case alone performs cycle elimination).
	ChainLength int

	// SizeOnly ignores the chain entirely, keying sites by rounded size
	// alone (Table 5).
	SizeOnly bool

	// AdmitFraction is the fraction of a site's training objects that
	// must have been short-lived for the site to be admitted as a
	// predictor. The paper requires all of them (1.0); lower values are
	// an ablation ("how large should this percentage be?", §4.1).
	AdmitFraction float64

	// HistogramRule admits a site by consulting its P² quantile
	// histogram instead of exact short/long counts: the site is admitted
	// iff the estimated AdmitFraction-quantile of its lifetime
	// distribution lies below the threshold. This is how the paper
	// frames the decision ("If a large percentage of the objects
	// allocated at that site are short-lived, we consider that site to
	// be an excellent predictor") — the histogram being the only
	// per-site record its tool keeps. With AdmitFraction 1.0 the rule
	// consults the histogram's tracked maximum, which is exact, so both
	// rules coincide; at lower fractions the P² approximation differs
	// from exact counting.
	HistogramRule bool

	// HistCells sets the number of equiprobable cells in each site's P2
	// lifetime quantile histogram. Zero defaults to 4 (quartiles).
	HistCells int
}

// DefaultConfig returns the paper's configuration: 32KB threshold, 4-byte
// rounding, complete chains, all-short admission, quartile histograms.
func DefaultConfig() Config {
	return Config{
		ShortThreshold: 32 << 10,
		SizeRounding:   4,
		ChainLength:    0,
		AdmitFraction:  1.0,
		HistCells:      4,
	}
}

func (c Config) withDefaults() Config {
	if c.ShortThreshold == 0 {
		c.ShortThreshold = 32 << 10
	}
	if c.SizeRounding == 0 {
		c.SizeRounding = 4
	}
	if c.AdmitFraction == 0 {
		c.AdmitFraction = 1.0
	}
	if c.HistCells == 0 {
		c.HistCells = 4
	}
	return c
}

// roundSize rounds a request size up to the configured multiple.
func (c Config) roundSize(size int64) int64 {
	r := c.SizeRounding
	if r <= 1 {
		return size
	}
	return (size + r - 1) / r * r
}

// siteChain transforms a raw birth chain into the site-key chain under the
// configuration, interning any derived chains into tb.
func (c Config) siteChain(tb *callchain.Table, raw callchain.ChainID) callchain.ChainID {
	if c.SizeOnly {
		return 0
	}
	if c.ChainLength > 0 {
		return tb.SubChain(raw, c.ChainLength)
	}
	return tb.EliminateRecursion(raw)
}

// SiteKey identifies an allocation site under some Config. The chain id is
// relative to the table the DB or Predictor was built with.
type SiteKey struct {
	Chain callchain.ChainID
	Size  int64
}

// SiteStats accumulates the training observations for one site.
type SiteStats struct {
	Objects     int64
	Bytes       int64
	ShortBytes  int64
	ShortCount  int64
	Refs        int64
	MaxLifetime int64
	Hist        *quantile.Histogram
}

// admitted reports whether the site passes the exact-count admission rule.
func (s *SiteStats) admitted(frac float64) bool {
	if s.Objects == 0 {
		return false
	}
	return float64(s.ShortCount) >= frac*float64(s.Objects)
}

// admittedByHistogram applies the quantile-histogram rule instead.
func (s *SiteStats) admittedByHistogram(frac float64, threshold int64) bool {
	if s.Objects == 0 {
		return false
	}
	return s.Hist.Quantile(frac) < float64(threshold)
}

// DB is a trained site database: the output of a training run, mapping
// every site to its lifetime statistics and quantile histogram.
type DB struct {
	Config Config
	Table  *callchain.Table
	Sites  map[SiteKey]*SiteStats
}

// Train builds a site database from a trace. The DB shares the trace's
// chain table (it interns derived sub-chains into it).
func Train(tr *trace.Trace, cfg Config) (*DB, error) {
	objs, err := trace.Annotate(tr)
	if err != nil {
		return nil, err
	}
	return TrainObjects(tr.Table, objs, cfg), nil
}

// TrainSource builds a site database from a streaming event source,
// holding only the live-object set and the per-site statistics — never
// the trace. The source's chain table becomes the DB's table.
//
// Objects reach the database in death order (never-freed objects last)
// rather than Annotate's birth order. The exact-count admission rule is
// order-insensitive, so the resulting Predictor is identical to one
// trained via Train/TrainObjects on the materialized trace; only the P²
// quantile histograms (consulted when Config.HistogramRule is set) are
// insertion-order sensitive and may differ in their interior markers.
func TrainSource(src trace.Source, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	db := &DB{Config: cfg, Table: src.Table(), Sites: make(map[SiteKey]*SiteStats)}
	if err := trace.AnnotateStream(src, func(o trace.Object) error {
		db.addObject(&o)
		return nil
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// TrainObjects builds a site database from pre-annotated objects whose
// chains live in tb.
func TrainObjects(tb *callchain.Table, objs []trace.Object, cfg Config) *DB {
	cfg = cfg.withDefaults()
	db := &DB{Config: cfg, Table: tb, Sites: make(map[SiteKey]*SiteStats)}
	for i := range objs {
		db.addObject(&objs[i])
	}
	return db
}

func (db *DB) addObject(o *trace.Object) {
	key := SiteKey{
		Chain: db.Config.siteChain(db.Table, o.Chain),
		Size:  db.Config.roundSize(o.Size),
	}
	st := db.Sites[key]
	if st == nil {
		h, err := quantile.NewHistogram(db.Config.HistCells)
		if err != nil {
			panic(fmt.Sprintf("profile: bad HistCells: %v", err))
		}
		st = &SiteStats{Hist: h}
		db.Sites[key] = st
	}
	st.Objects++
	st.Bytes += o.Size
	st.Refs += o.Refs
	st.Hist.Add(float64(o.Lifetime))
	if o.Lifetime > st.MaxLifetime {
		st.MaxLifetime = o.Lifetime
	}
	if o.Lifetime < db.Config.ShortThreshold {
		st.ShortCount++
		st.ShortBytes += o.Size
	}
}

// NumSites reports the number of distinct sites observed.
func (db *DB) NumSites() int { return len(db.Sites) }

// Predictor extracts the set of admitted short-lived predictor sites.
func (db *DB) Predictor() *Predictor {
	keys := make(map[SiteKey]struct{})
	for k, st := range db.Sites {
		ok := st.admitted(db.Config.AdmitFraction)
		if db.Config.HistogramRule {
			ok = st.admittedByHistogram(db.Config.AdmitFraction, db.Config.ShortThreshold)
		}
		if ok {
			keys[k] = struct{}{}
		}
	}
	return newPredictor(db.Config, db.Table, keys)
}

// Predictor is the trained short-lived-site database the allocator
// consults at each allocation (paper §5.1: "the presence of the allocation
// site in the short-lived site database indicates an arena allocation").
// It is immutable once built: keys is the admitted site set, and index
// holds the same verdicts by chain and size class for Mappers.
type Predictor struct {
	Config Config
	table  *callchain.Table
	keys   map[SiteKey]struct{}
	index  *verdictIndex
}

// NumSites reports how many predictor sites were admitted.
func (p *Predictor) NumSites() int { return len(p.keys) }

// Table returns the chain table the predictor's keys live in.
func (p *Predictor) Table() *callchain.Table { return p.table }

// PredictShort reports whether an allocation with the given raw chain (in
// p's own table) and size is predicted short-lived.
func (p *Predictor) PredictShort(raw callchain.ChainID, size int64) bool {
	key := SiteKey{
		Chain: p.Config.siteChain(p.table, raw),
		Size:  p.Config.roundSize(size),
	}
	_, ok := p.keys[key]
	return ok
}

// siteBinding maps raw chains of a foreign execution's table onto site
// chains of an oracle's table by function name — the paper's cross-run
// site mapping, shared by Mapper and SiteMapper. The chain is transformed
// structurally in the foreign table (sub-chain or recursion elimination),
// then looked up by name in the oracle's table with callchain.Table.Lookup.
// Binding never interns into the oracle's table: a chain that table does
// not hold is not a site, so every oracle predicts it long-lived. That
// keeps a shared oracle table read-only under any number of concurrent
// bindings. The memo, indexed by raw chain, makes every sighting after
// the first a slice load.
type siteBinding struct {
	cfg   Config
	from  *callchain.Table
	to    *callchain.Table
	index *verdictIndex // the predictor's, for Mapper; nil for SiteMapper
	memo  []boundChain
}

// boundChain is one memoized mapping: the site chain in the foreign
// table, the same chain in the oracle's table, whether the oracle's
// table holds it at all, and where its verdict bits lie in the
// predictor's index.
type boundChain struct {
	local callchain.ChainID
	id    callchain.ChainID
	ok    bool
	bound bool // the slot is filled
	span  span
}

func newSiteBinding(cfg Config, from, to *callchain.Table, index *verdictIndex) siteBinding {
	return siteBinding{cfg: cfg, from: from, to: to, index: index, memo: make([]boundChain, from.NumChains())}
}

// lookup maps one raw chain of the foreign table. The result points into
// the memo and is valid until the next lookup.
func (b *siteBinding) lookup(raw callchain.ChainID) *boundChain {
	if int(raw) < len(b.memo) && b.memo[raw].bound {
		return &b.memo[raw]
	}
	return b.bind(raw)
}

// bind maps raw on its first sighting, growing the memo to cover chains
// interned into the foreign table after the binding was made.
func (b *siteBinding) bind(raw callchain.ChainID) *boundChain {
	if int(raw) >= len(b.memo) {
		b.memo = append(b.memo, make([]boundChain, max(b.from.NumChains(), int(raw)+1)-len(b.memo))...)
	}
	local := b.cfg.siteChain(b.from, raw)
	fs := b.from.Funcs(local)
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = b.from.FuncName(f)
	}
	id, ok := b.to.Lookup(names...)
	bc := boundChain{local: local, id: id, ok: ok, bound: true}
	if ok && b.index != nil {
		bc.span = b.index.span(id)
	}
	b.memo[raw] = bc
	return &b.memo[raw]
}

// key returns the site key, in the oracle's table, of one foreign
// allocation; ok is false when the oracle's table lacks its chain.
func (b *siteBinding) key(raw callchain.ChainID, size int64) (SiteKey, bool) {
	bc := b.lookup(raw)
	return SiteKey{Chain: bc.id, Size: b.cfg.roundSize(size)}, bc.ok
}

// Mapper translates chains from another execution's table into the
// predictor's table by function name — the paper's cross-run site mapping
// (see siteBinding for the "absent means not a site" rule). It answers
// from the predictor's verdict index, falling back to the key set for
// sizes the index does not cover.
type Mapper struct {
	p    *Predictor
	ix   verdictIndex // a copy of *p.index, sharing its words
	bind siteBinding

	// seen mirrors the index's words: a set bit is a dense site already
	// matched, counted once in matched. hits holds the matched sites
	// outside the index.
	seen    []uint64
	matched int
	hits    map[SiteKey]struct{}
}

// NewMapper prepares a mapper from chains interned in from onto p.
func (p *Predictor) NewMapper(from *callchain.Table) *Mapper {
	return &Mapper{
		p:    p,
		ix:   *p.index,
		bind: newSiteBinding(p.Config, from, p.table, p.index),
		seen: make([]uint64, len(p.index.words)),
	}
}

// PredictShort reports the prediction for an allocation observed in the
// foreign execution, and records site-usage accounting.
func (m *Mapper) PredictShort(raw callchain.ChainID, size int64) bool {
	bc := m.bind.lookup(raw)
	ix := &m.ix
	if cls, ok := ix.class(size); ok {
		if cls >= 64*uint64(bc.span.n) {
			return false
		}
		w, bit := uint64(bc.span.off)+cls/64, uint64(1)<<(cls%64)
		if ix.words[w]&bit == 0 {
			return false
		}
		if m.seen[w]&bit == 0 {
			m.seen[w] |= bit
			m.matched++
		}
		return true
	}
	if !bc.ok {
		return false
	}
	key := SiteKey{Chain: bc.id, Size: m.p.Config.roundSize(size)}
	if _, ok := m.p.keys[key]; !ok {
		return false
	}
	if m.hits == nil {
		m.hits = make(map[SiteKey]struct{})
	}
	m.hits[key] = struct{}{}
	return true
}

// SitesMatched reports how many distinct predictor sites matched at least
// one allocation — the paper's "Sites Used" under true prediction.
func (m *Mapper) SitesMatched() int { return m.matched + len(m.hits) }

// Eval holds the prediction-effectiveness metrics of Tables 4, 5 and 6.
type Eval struct {
	TotalSites   int // distinct sites in the evaluated trace
	SitesUsed    int // predictor sites that matched >= 1 allocation
	TotalObjects int64
	TotalBytes   int64

	ActualShortBytes    int64 // objects that really died before the threshold
	PredictedBytes      int64 // bytes predicted short (correct or not)
	PredictedShortBytes int64 // predicted short AND actually short
	ErrorBytes          int64 // predicted short but actually long

	PredictedRefs int64 // heap refs to predicted-short objects
	TotalRefs     int64
}

// ActualShortPct returns 100 * actual-short / total bytes.
func (e Eval) ActualShortPct() float64 { return pct(e.ActualShortBytes, e.TotalBytes) }

// PredictedShortPct returns 100 * correctly-predicted / total bytes — the
// paper's "Predicted Short-lived Bytes (%)".
func (e Eval) PredictedShortPct() float64 { return pct(e.PredictedShortBytes, e.TotalBytes) }

// ErrorPct returns 100 * error bytes / total bytes.
func (e Eval) ErrorPct() float64 { return pct(e.ErrorBytes, e.TotalBytes) }

// NewRefPct returns 100 * refs-to-predicted / total heap refs — Table 6's
// "New Ref" column.
func (e Eval) NewRefPct() float64 { return pct(e.PredictedRefs, e.TotalRefs) }

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Evaluate runs the predictor over a trace (self prediction when the trace
// is the training trace, true prediction otherwise — the chains are mapped
// by name either way) and returns the effectiveness metrics.
func Evaluate(tr *trace.Trace, p *Predictor) (Eval, error) {
	objs, err := trace.Annotate(tr)
	if err != nil {
		return Eval{}, err
	}
	return EvaluateObjects(tr.Table, objs, p), nil
}

// EvaluateObjects evaluates pre-annotated objects whose chains live in tb.
// TotalSites counts the distinct sites of tb itself (its own transformed
// chains), so sites the predictor's table never saw still count apart.
func EvaluateObjects(tb *callchain.Table, objs []trace.Object, p *Predictor) Eval {
	m := p.NewMapper(tb)
	var ev Eval
	seen := make(map[SiteKey]struct{})
	for i := range objs {
		o := &objs[i]
		seen[SiteKey{Chain: m.bind.lookup(o.Chain).local, Size: p.Config.roundSize(o.Size)}] = struct{}{}
		ev.add(o, m.PredictShort(o.Chain, o.Size), p.Config.ShortThreshold)
	}
	ev.TotalSites = len(seen)
	ev.SitesUsed = m.SitesMatched()
	return ev
}

// add scores one object against the verdict its predictor gave it.
func (ev *Eval) add(o *trace.Object, predictedShort bool, threshold int64) {
	ev.TotalObjects++
	ev.TotalBytes += o.Size
	ev.TotalRefs += o.Refs
	short := o.Lifetime < threshold
	if short {
		ev.ActualShortBytes += o.Size
	}
	if predictedShort {
		ev.PredictedBytes += o.Size
		ev.PredictedRefs += o.Refs
		if short {
			ev.PredictedShortBytes += o.Size
		} else {
			ev.ErrorBytes += o.Size
		}
	}
}

// LifetimeQuantiles returns exact quantiles of the trace's object-lifetime
// distribution at the given probabilities. When byteWeighted is true each
// object is weighted by its size, which is how the paper's Table 3 reads
// ("each column gives the lifetime for which that percentage of bytes is
// alive"); otherwise objects weigh equally.
func LifetimeQuantiles(objs []trace.Object, probs []float64, byteWeighted bool) []float64 {
	type lw struct {
		life int64
		w    int64
	}
	items := make([]lw, len(objs))
	var totalW int64
	for i := range objs {
		w := int64(1)
		if byteWeighted {
			w = objs[i].Size
		}
		items[i] = lw{objs[i].Lifetime, w}
		totalW += w
	}
	sort.Slice(items, func(i, j int) bool { return items[i].life < items[j].life })
	out := make([]float64, len(probs))
	if len(items) == 0 || totalW == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for pi, p := range probs {
		target := int64(p * float64(totalW))
		var acc int64
		val := items[len(items)-1].life
		for _, it := range items {
			acc += it.w
			if acc >= target {
				val = it.life
				break
			}
		}
		out[pi] = float64(val)
	}
	return out
}

// TopSizes returns the n most allocation-heavy rounded request sizes in
// the database — the profile a CUSTOMALLOC-style allocator (the paper's
// reference [9]) synthesizes its per-size free lists from.
func (db *DB) TopSizes(n int) []int64 {
	counts := make(map[int64]int64)
	for key, st := range db.Sites {
		counts[key.Size] += st.Objects
	}
	sizes := make([]int64, 0, len(counts))
	for s := range counts {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool {
		if counts[sizes[i]] != counts[sizes[j]] {
			return counts[sizes[i]] > counts[sizes[j]]
		}
		return sizes[i] < sizes[j]
	})
	if n < len(sizes) {
		sizes = sizes[:n]
	}
	return sizes
}

// Site reports the mapped site key for an allocation observed in the
// foreign execution and whether that site is an admitted short-lived
// predictor. It gives allocators that segregate per site (Hanson-style)
// a stable identity; unlike PredictShort it does not touch the site-usage
// accounting. The key is meaningful only when the verdict is true.
func (m *Mapper) Site(raw callchain.ChainID, size int64) (SiteKey, bool) {
	bc := m.bind.lookup(raw)
	ix := &m.ix
	if cls, ok := ix.class(size); ok {
		key := SiteKey{Chain: bc.id, Size: ix.round(cls)}
		if cls >= 64*uint64(bc.span.n) {
			return key, false
		}
		return key, ix.words[uint64(bc.span.off)+cls/64]&(1<<(cls%64)) != 0
	}
	key := SiteKey{Chain: bc.id, Size: m.p.Config.roundSize(size)}
	if !bc.ok {
		return key, false
	}
	_, ok := m.p.keys[key]
	return key, ok
}
