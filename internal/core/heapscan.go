package core

import (
	"repro/internal/heapsim"
	"repro/internal/obs"
)

// freeSpanBuckets sizes the per-region log2 free-span-length histograms:
// 40 buckets cover spans up to half a terabyte before the overflow
// bucket engages, same budget as the lifetime histograms.
const freeSpanBuckets = 40

// heapScanner turns an allocator's Walker layout into the heap.* obs
// families on every timeline sample. Walkers are read-only by contract,
// so scanning never perturbs the replay — it only spends time
// proportional to the tracked block count at each sampling boundary.
//
// Every gauge, counter, and histogram handle is resolved at creation so
// the families appear (as zeros) in snapshots even when a run never
// fragments — a scrape can tell "no fragmentation" from "scanner off".
type heapScanner struct {
	col  *obs.Collector
	w    heapsim.Walker
	bins int

	scans       *obs.Counter // heap.scan_samples, the enabled marker
	livePayload *obs.Gauge
	headerOv    *obs.Gauge
	internal    *obs.Gauge
	external    *obs.Gauge
	holes       *obs.Gauge
	freeSpans   *obs.Gauge
	largestFree *obs.Gauge

	regions map[string]*regionObs
	cells   []int64 // reusable heatmap bin accumulator
}

// regionObs holds one region's resolved handles plus per-scan scratch.
type regionObs struct {
	live, free, hole, extent *obs.Gauge
	spanLen                  *obs.Histogram

	// per-scan scratch, reset at the top of each scan
	liveB, freeB int64
}

// heapScanStats is one scan's decomposition, copied into the timeline
// sample. The identity
// livePayload + header + internal + external + holes == HeapSize()
// holds because region extents sum to HeapSize (the Walker contract).
type heapScanStats struct {
	livePayload int64 // requested bytes of live objects
	header      int64 // modeled per-object header bytes in live spans
	internal    int64 // live-span padding beyond payload and header
	external    int64 // free-span bytes awaiting reuse
	holes       int64 // region bytes in no span (untiled windows, slab tails)
	freeSpans   int64
	largestFree int64
}

// newHeapScanner resolves every handle for the allocator's region set.
func newHeapScanner(col *obs.Collector, w heapsim.Walker) *heapScanner {
	sc := &heapScanner{
		col:         col,
		w:           w,
		bins:        col.HeatmapBins(),
		scans:       col.Counter(obs.HeapScanSamples),
		livePayload: col.Gauge(obs.HeapLivePayloadBytes),
		headerOv:    col.Gauge(obs.HeapHeaderBytes),
		internal:    col.Gauge(obs.HeapInternalFragBytes),
		external:    col.Gauge(obs.HeapExternalFragBytes),
		holes:       col.Gauge(obs.HeapHoleBytes),
		freeSpans:   col.Gauge(obs.HeapFreeSpans),
		largestFree: col.Gauge(obs.HeapLargestFreeSpanBytes),
		regions:     make(map[string]*regionObs),
	}
	sc.cells = make([]int64, sc.bins)
	for _, r := range w.Regions() {
		sc.region(r.Name)
	}
	return sc
}

// region resolves (once) the per-region handles. The region set of every
// simulator is fixed from init, so this is a map hit on the scan path.
func (sc *heapScanner) region(name string) *regionObs {
	ro := sc.regions[name]
	if ro == nil {
		prefix := "heap.region." + name
		ro = &regionObs{
			live:    sc.col.Gauge(prefix + ".live_bytes"),
			free:    sc.col.Gauge(prefix + ".free_bytes"),
			hole:    sc.col.Gauge(prefix + ".hole_bytes"),
			extent:  sc.col.Gauge(prefix + ".extent_bytes"),
			spanLen: sc.col.Log2Histogram("heap.free_span_len."+name, freeSpanBuckets),
		}
		sc.regions[name] = ro
	}
	return ro
}

// packedRegion maps one region window into the heatmap's packed address
// space: [off, off+extent) in heatmap coordinates.
type packedRegion struct {
	base, off, extent, header int64
	ro                        *regionObs
}

// scan walks the layout once, updates every heap.* family, records one
// heatmap row, and returns the decomposition for the timeline sample.
func (sc *heapScanner) scan(clock int64) heapScanStats {
	regs := sc.w.Regions()
	packed := make(map[string]*packedRegion, len(regs))
	var extent int64
	for _, r := range regs {
		ro := sc.region(r.Name)
		ro.liveB, ro.freeB = 0, 0
		packed[r.Name] = &packedRegion{
			base: r.Base, off: extent, extent: r.End - r.Base,
			header: r.Header, ro: ro,
		}
		extent += r.End - r.Base
	}
	for i := range sc.cells {
		sc.cells[i] = 0
	}
	binW := int64(1)
	if sc.bins > 0 && extent > 0 {
		binW = (extent + int64(sc.bins) - 1) / int64(sc.bins)
	}

	var st heapScanStats
	// The emit callback never returns an error, so Walk cannot fail.
	sc.w.Walk(func(s heapsim.Span) error {
		pr := packed[s.Region]
		if pr == nil {
			return nil // span outside any declared region; auditor territory
		}
		if s.Free {
			st.external += s.Size
			st.freeSpans++
			if s.Size > st.largestFree {
				st.largestFree = s.Size
			}
			pr.ro.freeB += s.Size
			pr.ro.spanLen.Observe(s.Size)
			return nil
		}
		payload := s.Payload
		if payload < 0 {
			payload = 0 // orphan block: all overhead, no payload
		}
		over := s.Size - payload
		hdr := pr.header
		if hdr > over {
			hdr = over
		}
		st.livePayload += payload
		st.header += hdr
		st.internal += over - hdr
		pr.ro.liveB += s.Size
		// Heatmap: spread the live block's bytes over the bins its packed
		// address range overlaps.
		if extent > 0 && sc.bins > 0 {
			p0 := pr.off + (s.Addr - pr.base)
			p1 := p0 + s.Size
			if p0 < 0 {
				p0 = 0
			}
			if p1 > extent {
				p1 = extent
			}
			for b := p0 / binW; b*binW < p1 && b < int64(sc.bins); b++ {
				lo, hi := b*binW, (b+1)*binW
				if lo < p0 {
					lo = p0
				}
				if hi > p1 {
					hi = p1
				}
				sc.cells[b] += hi - lo
			}
		}
		return nil
	})

	for _, r := range regs {
		pr := packed[r.Name]
		hole := pr.extent - pr.ro.liveB - pr.ro.freeB
		st.holes += hole
		pr.ro.live.Set(pr.ro.liveB)
		pr.ro.free.Set(pr.ro.freeB)
		pr.ro.hole.Set(hole)
		pr.ro.extent.Set(pr.extent)
	}
	sc.livePayload.Set(st.livePayload)
	sc.headerOv.Set(st.header)
	sc.internal.Set(st.internal)
	sc.external.Set(st.external)
	sc.holes.Set(st.holes)
	sc.freeSpans.Set(st.freeSpans)
	sc.largestFree.Set(st.largestFree)
	sc.scans.Add(1)

	sc.col.RecordHeatmapRow(obs.HeatmapRow{
		Clock:  clock,
		Extent: extent,
		Cells:  append([]int64(nil), sc.cells...),
	})
	return st
}
