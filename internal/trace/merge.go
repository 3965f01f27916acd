package trace

import (
	"container/heap"
	"fmt"
	"io"

	"repro/internal/callchain"
)

// Merge interleaves several traces into one, ordering events by each
// shard's local byte clock (cumulative bytes allocated). This supports
// sharded instrumentation of concurrent Go programs: each goroutine
// records into its own apptrace.Recorder, and the shards merge into a
// single trace whose global time remains bytes-allocated. Object ids are
// re-based so they stay unique; chains are re-interned by function name
// into a fresh table.
//
// Header convention: the merged Program and Input are taken from the
// first shard that sets each field (in practice traces[0] — shards of
// one instrumented run share a header). A shard with an empty field is
// compatible with anything; two shards that set *different* non-empty
// values are a caller error — merging, say, cfrac with espresso would
// silently mislabel the result — and Merge reports it instead of
// guessing.
//
// The interleaving is a modeling choice — concurrent shards have no true
// global allocation order — but byte-clock merging preserves each shard's
// internal lifetimes up to the allocation volume the other shards
// contribute in between, which is the same notion of time the paper uses.
func Merge(traces []*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: Merge needs at least one trace")
	}
	var program, input string
	for i, tr := range traces {
		if p := tr.Program; p != "" {
			if program == "" {
				program = p
			} else if p != program {
				return nil, fmt.Errorf("trace: merge: shard %d has program %q, earlier shards %q", i, p, program)
			}
		}
		if in := tr.Input; in != "" {
			if input == "" {
				input = in
			} else if in != input {
				return nil, fmt.Errorf("trace: merge: shard %d has input %q, earlier shards %q", i, in, input)
			}
		}
	}
	out := &Trace{
		Program: program,
		Input:   input,
		Table:   callchain.NewTable(),
	}

	// Object ids shift past every earlier shard's id range; chains are
	// re-interned by name, memoized per shard.
	shards := make([]Source, len(traces))
	bases := make([]ObjectID, len(traces))
	memos := make([]map[callchain.ChainID]callchain.ChainID, len(traces))
	var base ObjectID
	total := 0
	for i, tr := range traces {
		out.FunctionCalls += tr.FunctionCalls
		out.NonHeapRefs += tr.NonHeapRefs
		var maxID ObjectID
		for _, ev := range tr.Events {
			if ev.Kind == KindAlloc && ev.Obj > maxID {
				maxID = ev.Obj
			}
		}
		shards[i] = NewSliceSource(tr)
		bases[i] = base
		memos[i] = make(map[callchain.ChainID]callchain.ChainID)
		base += maxID + 1
		total += len(tr.Events)
	}

	// The Interleaver orders shards by (clock, shard index), so the
	// interleave is deterministic.
	it := NewInterleaver(shards)
	out.Events = make([]Event, 0, total)
	for {
		shard, ev, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: Merge: %w", err)
		}
		obj := ev.Obj + bases[shard]
		if ev.Kind == KindFree {
			out.Events = append(out.Events, Event{Kind: KindFree, Obj: obj})
			continue
		}
		mapped, ok := memos[shard][ev.Chain]
		if !ok {
			tb := traces[shard].Table
			fs := tb.Funcs(ev.Chain)
			names := make([]string, len(fs))
			for j, f := range fs {
				names[j] = tb.FuncName(f)
			}
			mapped = out.Table.InternNames(names...)
			memos[shard][ev.Chain] = mapped
		}
		out.Events = append(out.Events, Event{
			Kind:  KindAlloc,
			Obj:   obj,
			Size:  ev.Size,
			Chain: mapped,
			Refs:  ev.Refs,
		})
	}
}

// Interleaver merges k event streams onto one shared virtual byte clock.
// A shard's position in the merge is its local clock — cumulative bytes
// it has allocated so far — and ties break deterministically: by shard
// index (NewInterleaver, matching Merge) or by caller-supplied string
// keys (NewKeyedInterleaver, so the merge order is invariant under
// permutation of the shard slice; the cluster keys by tenant id).
//
// Shards are consumed through AsBlockSource with one buffered block per
// shard, so block-native producers (synth generators, binary readers,
// column views) pay no per-event interface dispatch. Events, ids, and
// chains pass through unmodified; Merge layers id rebasing and chain
// re-interning on top.
type Interleaver struct {
	cursors []*mergeCursor
	h       cursorHeap
	inited  bool
	err     error // terminal error; the merged stream is dead once set
}

// mergeCursor is one shard's streaming state: a buffered block, a read
// position within it, and the shard-local byte clock.
type mergeCursor struct {
	bs    BlockSource
	blk   *EventBlock
	pos   int
	clock int64
	idx   int
	key   string
	byKey bool
}

// NewInterleaver returns an Interleaver over shards with ties broken by
// shard index, the order Merge uses.
func NewInterleaver(shards []Source) *Interleaver {
	it := &Interleaver{cursors: make([]*mergeCursor, len(shards))}
	for i, s := range shards {
		it.cursors[i] = &mergeCursor{
			bs:  AsBlockSource(s),
			blk: NewEventBlock(DefaultBlockLen),
			idx: i,
		}
	}
	return it
}

// NewKeyedInterleaver returns an Interleaver with clock ties broken by
// the given per-shard keys, which must be unique. Because the tie-break
// depends only on the key, permuting (shards, keys) in lockstep permutes
// the shard indices Next reports but leaves the merged event order — and
// every per-key observation derived from it — unchanged.
func NewKeyedInterleaver(shards []Source, keys []string) (*Interleaver, error) {
	if len(keys) != len(shards) {
		return nil, fmt.Errorf("trace: interleaver: %d shards but %d keys", len(shards), len(keys))
	}
	seen := make(map[string]int, len(keys))
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			return nil, fmt.Errorf("trace: interleaver: shards %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
	it := NewInterleaver(shards)
	for i, c := range it.cursors {
		c.key = keys[i]
		c.byKey = true
	}
	return it, nil
}

// Next returns the next event in merged order and the index of the shard
// it came from. io.EOF marks the clean end (every shard drained); any
// other error — a malformed shard, or a shard's read failure — kills the
// merged stream, exactly as it would kill a single-shard replay.
func (it *Interleaver) Next() (int, Event, error) {
	if it.err != nil {
		return 0, Event{}, it.err
	}
	if !it.inited {
		it.inited = true
		for _, c := range it.cursors {
			if err := it.fill(c); err != nil {
				it.err = err
				return 0, Event{}, err
			}
			if c.pos < c.blk.N {
				heap.Push(&it.h, c)
			}
		}
	}
	if it.h.Len() == 0 {
		it.err = io.EOF
		return 0, Event{}, io.EOF
	}
	c := it.h[0]
	ev := c.blk.Event(c.pos)
	c.pos++
	switch ev.Kind {
	case KindAlloc:
		c.clock += ev.Size
	case KindFree:
	default:
		it.err = fmt.Errorf("trace: interleaver: shard %d event has bad kind %d", c.idx, ev.Kind)
		return 0, Event{}, it.err
	}
	if c.pos >= c.blk.N {
		if err := it.fill(c); err != nil {
			// The current event is still valid; the error surfaces on the
			// next call, preserving the scalar event-then-error order.
			it.err = err
			heap.Pop(&it.h)
			return c.idx, ev, nil
		}
	}
	if c.pos < c.blk.N {
		heap.Fix(&it.h, 0)
	} else {
		heap.Pop(&it.h)
	}
	return c.idx, ev, nil
}

// fill refills c's buffered block. A clean end leaves the cursor empty
// with a nil error; a non-EOF error is returned.
func (it *Interleaver) fill(c *mergeCursor) error {
	err := c.bs.NextBlock(c.blk)
	c.pos = 0
	if err == io.EOF {
		c.blk.Reset()
		return nil
	}
	return err
}

// cursorHeap is a min-heap on (shard clock, tie-break key).
type cursorHeap []*mergeCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	if h[i].byKey {
		return h[i].key < h[j].key
	}
	return h[i].idx < h[j].idx
}
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(*mergeCursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}
