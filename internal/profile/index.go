package profile

import (
	"math/bits"

	"repro/internal/callchain"
)

// maxDenseClasses bounds the size classes a site chain's verdict bits
// cover. Admitted sites past it or with a rounded size of 2^32 and up,
// and allocations of non-positive sizes, are decided by the predictor's
// key set instead.
const maxDenseClasses = 1 << 12

// verdictIndex is a Predictor's admitted sites laid out for lookup by
// site chain and size class, the class of a size being its rounded size
// divided by SizeRounding. Chain c's verdicts for classes [0, 64*n) are
// the bits of words[off:off+n], where {off, n} = spans[c]. Every
// Predictor constructor builds one and nothing writes it afterwards, so
// any number of Mappers read it without synchronization.
type verdictIndex struct {
	shift uint   // log2(SizeRounding) when it is a power of two (0 for <= 1)
	mask  int64  // SizeRounding-1 under shift, else 0
	div   int64  // SizeRounding when it is not a power of two, else 0
	limit uint64 // classes covered: below maxDenseClasses, rounded size below 2^32
	spans []span // by chain id in the predictor's table
	words []uint64
}

// span locates one chain's verdict words in verdictIndex.words.
type span struct{ off, n uint32 }

// newPredictor returns the predictor admitting keys, whose chains live in
// tb, with its verdict index built.
func newPredictor(cfg Config, tb *callchain.Table, keys map[SiteKey]struct{}) *Predictor {
	return &Predictor{Config: cfg, table: tb, keys: keys, index: newVerdictIndex(cfg.SizeRounding, tb.NumChains(), keys)}
}

func newVerdictIndex(rounding int64, numChains int, keys map[SiteKey]struct{}) *verdictIndex {
	ix := &verdictIndex{spans: make([]span, numChains)}
	switch {
	case rounding <= 1:
	case rounding&(rounding-1) == 0:
		ix.shift = uint(bits.TrailingZeros64(uint64(rounding)))
		ix.mask = rounding - 1
	default:
		ix.div = rounding
	}
	ix.limit = min(maxDenseClasses, uint64((1<<32-1)/max(rounding, 1))+1)
	// Size each chain's span to its highest dense class, then lay the
	// spans out in chain order and set the bits.
	dense := func(k SiteKey) (uint64, bool) {
		if int(k.Chain) >= numChains || k.Size <= 0 {
			return 0, false
		}
		var cls int64
		if ix.div != 0 {
			cls = k.Size / ix.div
		} else {
			cls = k.Size >> ix.shift
		}
		return uint64(cls), ix.round(uint64(cls)) == k.Size && uint64(cls) < ix.limit
	}
	for k := range keys {
		if cls, ok := dense(k); ok {
			s := &ix.spans[k.Chain]
			s.n = max(s.n, uint32(cls/64+1))
		}
	}
	var off uint32
	for c := range ix.spans {
		ix.spans[c].off = off
		off += ix.spans[c].n
	}
	ix.words = make([]uint64, off)
	for k := range keys {
		if cls, ok := dense(k); ok {
			ix.words[uint64(ix.spans[k.Chain].off)+cls/64] |= 1 << (cls % 64)
		}
	}
	return ix
}

// class returns the size class of a request size. ok is false where the
// index does not answer: sizes outside (0, 2^32) and classes from limit
// up. Where it answers, a class past a chain's span is not admitted.
func (ix *verdictIndex) class(size int64) (cls uint64, ok bool) {
	if uint64(size-1) >= 1<<32-1 {
		return 0, false
	}
	if ix.div != 0 {
		// A rounding near 2^63 wraps the sum; roundSize wraps alike, so
		// such sizes go to the key set.
		q := (size + ix.div - 1) / ix.div
		return uint64(q), q > 0 && uint64(q) < ix.limit
	}
	cls = uint64(size+ix.mask) >> ix.shift
	return cls, cls < ix.limit
}

// round returns the rounded size of a class.
func (ix *verdictIndex) round(cls uint64) int64 {
	if ix.div != 0 {
		return int64(cls) * ix.div
	}
	return int64(cls << ix.shift)
}

// span returns the verdict span of chain id in the predictor's table; a
// chain interned after the index was built has none.
func (ix *verdictIndex) span(id callchain.ChainID) span {
	if int(id) < len(ix.spans) {
		return ix.spans[id]
	}
	return span{}
}
