package obs

// Flatten reduces a snapshot to a flat name → value map, the common
// currency of cmd/lpdiff and the bench files: counters under their own
// names, gauges as name and name.max, histograms as name.count /
// name.sum / name.mean / name.max, exact event totals as events.<kind>, and the bytes-allocated clock as "clock". Nil-safe: a
// nil snapshot flattens to an empty map.
func (s *Snapshot) Flatten() map[string]float64 {
	if s == nil {
		return map[string]float64{}
	}
	out := make(map[string]float64,
		2+len(s.Counters)+2*len(s.Gauges)+4*len(s.Histograms)+len(s.Events.Counts))
	out["clock"] = float64(s.Clock)
	for name, v := range s.Counters {
		out[name] = float64(v)
	}
	for name, g := range s.Gauges {
		out[name] = float64(g.Value)
		out[name+".max"] = float64(g.Max)
	}
	for name, h := range s.Histograms {
		out[name+".count"] = float64(h.Count)
		out[name+".sum"] = float64(h.Sum)
		out[name+".mean"] = h.Mean()
		out[name+".max"] = float64(h.Max)
	}
	for kind, n := range s.Events.Counts {
		out["events."+kind] = float64(n)
	}
	// Sink overflow is surfaced unconditionally (usually 0) so a capped
	// raw-event window is visible rather than a silent truncation.
	out["obs.dropped_events"] = float64(s.Events.Dropped)
	if s.Heatmap != nil {
		// Scalar fingerprints of the heatmap, named under heap. so the
		// lpbench -only heap. filter and the FRAG_seed gates cover them.
		out["heap.heatmap.bins"] = float64(s.Heatmap.Bins)
		out["heap.heatmap.rows"] = float64(len(s.Heatmap.Rows))
		out["heap.heatmap.cells_sum"] = float64(s.Heatmap.CellsSum())
	}
	return out
}

// FragPeakPct returns the worst fragmentation-and-overhead point on the
// snapshot's timeline: the maximum of 1 - live/heap (as a percentage)
// over all samples with a non-zero heap. Zero for empty timelines.
func (s *Snapshot) FragPeakPct() float64 {
	if s == nil {
		return 0
	}
	peak := 0.0
	for _, p := range s.Timeline {
		if p.HeapBytes <= 0 {
			continue
		}
		frag := 100 * (1 - float64(p.LiveBytes)/float64(p.HeapBytes))
		if frag > peak {
			peak = frag
		}
	}
	return peak
}
