package trace

import (
	"bytes"
	"io"
	"sort"
	"testing"

	"repro/internal/callchain"
)

func shardTrace(t *testing.T, program string, sizes []int64, fn string) *Trace {
	t.Helper()
	tb := callchain.NewTable()
	tr := &Trace{Program: program, Input: "train", Table: tb, FunctionCalls: int64(len(sizes))}
	c := tb.InternNames("main", fn)
	for i, sz := range sizes {
		tr.Events = append(tr.Events,
			Event{Kind: KindAlloc, Obj: ObjectID(i), Size: sz, Chain: c},
			Event{Kind: KindFree, Obj: ObjectID(i)})
	}
	return tr
}

func TestMergeInterleavesByByteClock(t *testing.T) {
	// Shard A allocates 100-byte objects, shard B 10-byte objects: B's
	// events should dominate the early merged stream 10:1 in counts.
	a := shardTrace(t, "p", []int64{100, 100, 100}, "big")
	b := shardTrace(t, "p", []int64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, "small")
	m, err := Merge([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStats(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalObjects != 13 || st.TotalBytes != 400 {
		t.Fatalf("merged totals %d/%d", st.TotalObjects, st.TotalBytes)
	}
	if m.FunctionCalls != 13 {
		t.Fatalf("function calls %d", m.FunctionCalls)
	}
	// After A's first alloc (clock 100), all of B's 10-byte allocs with
	// clock < 100 come before A's second: find positions.
	var firstBig2 int = -1
	bigSeen := 0
	smallBefore := 0
	for i, ev := range m.Events {
		if ev.Kind != KindAlloc {
			continue
		}
		if ev.Size == 100 {
			bigSeen++
			if bigSeen == 2 {
				firstBig2 = i
				break
			}
		} else if bigSeen == 1 {
			smallBefore++
		}
	}
	if firstBig2 < 0 || smallBefore < 9 {
		t.Fatalf("byte-clock interleave wrong: %d small allocs between bigs", smallBefore)
	}
}

func TestMergeRebasesObjectIDs(t *testing.T) {
	a := shardTrace(t, "p", []int64{8, 8}, "fa")
	b := shardTrace(t, "p", []int64{8, 8}, "fb")
	m, err := Merge([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ObjectID]bool{}
	for _, ev := range m.Events {
		if ev.Kind == KindAlloc {
			if seen[ev.Obj] {
				t.Fatalf("duplicate object id %d after merge", ev.Obj)
			}
			seen[ev.Obj] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("%d objects after merge", len(seen))
	}
}

func TestMergeChainsSurvive(t *testing.T) {
	a := shardTrace(t, "p", []int64{8}, "fa")
	b := shardTrace(t, "p", []int64{8}, "fb")
	m, err := Merge([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range m.Events {
		if ev.Kind == KindAlloc {
			names[m.Table.String(ev.Chain)] = true
		}
	}
	if !names["main>fa"] || !names["main>fb"] {
		t.Fatalf("chains lost in merge: %v", names)
	}
}

func TestMergeSingleAndEmpty(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	a := shardTrace(t, "p", []int64{8}, "f")
	m, err := Merge([]*Trace{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events) != len(a.Events) {
		t.Fatal("single-shard merge altered events")
	}
}

func TestMergeDeterministic(t *testing.T) {
	a := shardTrace(t, "p", []int64{10, 20, 30}, "fa")
	b := shardTrace(t, "p", []int64{15, 25}, "fb")
	m1, err := Merge([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Events) != len(m2.Events) {
		t.Fatal("merge not deterministic")
	}
	for i := range m1.Events {
		if m1.Events[i] != m2.Events[i] {
			t.Fatalf("merge diverges at %d", i)
		}
	}
}

// TestMergeHeaderConvention pins the Program/Input rules: first non-empty
// value wins, empty shards are compatible with anything, conflicting
// non-empty values are an error.
func TestMergeHeaderConvention(t *testing.T) {
	mk := func(program, input string) *Trace {
		tr := shardTrace(t, program, []int64{8}, "f")
		tr.Input = input
		return tr
	}

	// First non-empty wins, including across an empty-headed first shard.
	m, err := Merge([]*Trace{mk("", ""), mk("cfrac", "test")})
	if err != nil {
		t.Fatalf("Merge with empty header: %v", err)
	}
	if m.Program != "cfrac" || m.Input != "test" {
		t.Fatalf("merged header = %q/%q; want cfrac/test", m.Program, m.Input)
	}

	// Conflicting programs error.
	if _, err := Merge([]*Trace{mk("cfrac", "train"), mk("espresso", "train")}); err == nil {
		t.Fatal("Merge accepted conflicting programs")
	}
	// Conflicting inputs error.
	if _, err := Merge([]*Trace{mk("cfrac", "train"), mk("cfrac", "test")}); err == nil {
		t.Fatal("Merge accepted conflicting inputs")
	}
	// Same non-empty values are fine.
	if _, err := Merge([]*Trace{mk("cfrac", "train"), mk("cfrac", "train")}); err != nil {
		t.Fatalf("Merge rejected matching headers: %v", err)
	}
}

// TestKeyedInterleaverPermutationInvariance: with string-key tie-breaks,
// permuting the shard slice must not change the merged (key, event)
// sequence — the property the cluster's tenant ordering relies on.
func TestKeyedInterleaverPermutationInvariance(t *testing.T) {
	a := shardTrace(t, "p", []int64{10, 10, 10, 10}, "fa")
	b := shardTrace(t, "p", []int64{10, 25, 5}, "fb")
	c := shardTrace(t, "p", []int64{40, 40}, "fc")
	traces := []*Trace{a, b, c}
	keys := []string{"tenant-a", "tenant-b", "tenant-c"}

	type step struct {
		key string
		ev  Event
	}
	run := func(perm []int) []step {
		shards := make([]Source, len(perm))
		ks := make([]string, len(perm))
		for i, p := range perm {
			shards[i] = NewSliceSource(traces[p])
			ks[i] = keys[p]
		}
		it, err := NewKeyedInterleaver(shards, ks)
		if err != nil {
			t.Fatal(err)
		}
		var out []step
		for {
			shard, ev, err := it.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, step{key: ks[shard], ev: ev})
		}
	}

	want := run([]int{0, 1, 2})
	for _, perm := range [][]int{{1, 2, 0}, {2, 1, 0}, {0, 2, 1}} {
		got := run(perm)
		if len(got) != len(want) {
			t.Fatalf("perm %v: %d steps, want %d", perm, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("perm %v: step %d = %+v, want %+v", perm, i, got[i], want[i])
			}
		}
	}

	// Duplicate keys are rejected.
	if _, err := NewKeyedInterleaver(
		[]Source{NewSliceSource(a), NewSliceSource(b)},
		[]string{"t", "t"}); err == nil {
		t.Fatal("NewKeyedInterleaver accepted duplicate keys")
	}
}

func TestInterleaverBadKind(t *testing.T) {
	tb := callchain.NewTable()
	tr := &Trace{Program: "p", Table: tb, Events: []Event{{Kind: 99, Obj: 1}}}
	it := NewInterleaver([]Source{NewSliceSource(tr)})
	if _, _, err := it.Next(); err == nil || err == io.EOF {
		t.Fatalf("bad kind: err = %v; want kind error", err)
	}
	// The stream stays dead.
	if _, _, err := it.Next(); err == nil || err == io.EOF {
		t.Fatalf("dead stream: err = %v; want sticky error", err)
	}
}

// traceBytes serializes a trace to its LPTRACE2 encoding, the strictest
// available equality: header, table, and every event must match.
func traceBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBinary(&b, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return b.Bytes()
}

// checkMerge holds Merge to its contract without trusting the
// Interleaver: each merged event is the next unmerged event of the shard
// that is behind on the byte clock (lowest index on a tie), with its id
// shifted by that shard's base and its chain naming the same functions;
// every event appears; trailer totals add up; and a second Merge writes
// the same bytes.
func checkMerge(t *testing.T, traces []*Trace) {
	t.Helper()
	got, err := Merge(traces)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	again, err := Merge(traces)
	if err != nil {
		t.Fatalf("second Merge: %v", err)
	}
	if !bytes.Equal(traceBytes(t, got), traceBytes(t, again)) {
		t.Fatal("Merge is not deterministic")
	}

	// Shard i's rebased ids occupy [bases[i], bases[i+1]).
	bases := make([]ObjectID, len(traces)+1)
	var calls, refs int64
	for i, tr := range traces {
		var maxID ObjectID
		for _, ev := range tr.Events {
			if ev.Kind == KindAlloc && ev.Obj > maxID {
				maxID = ev.Obj
			}
		}
		bases[i+1] = bases[i] + maxID + 1
		calls += tr.FunctionCalls
		refs += tr.NonHeapRefs
	}
	if got.FunctionCalls != calls || got.NonHeapRefs != refs {
		t.Fatalf("trailer totals %d/%d, want %d/%d", got.FunctionCalls, got.NonHeapRefs, calls, refs)
	}

	pos := make([]int, len(traces))
	clock := make([]int64, len(traces))
	for k, ev := range got.Events {
		shard := sort.Search(len(traces), func(i int) bool { return bases[i+1] > ev.Obj })
		if shard == len(traces) || pos[shard] >= len(traces[shard].Events) {
			t.Fatalf("merged event %d (%+v) belongs to no shard with events left", k, ev)
		}
		for i := range traces {
			if pos[i] < len(traces[i].Events) && (clock[i] < clock[shard] || clock[i] == clock[shard] && i < shard) {
				t.Fatalf("merged event %d comes from shard %d, but shard %d is first on the byte clock", k, shard, i)
			}
		}
		want := traces[shard].Events[pos[shard]]
		pos[shard]++
		if ev.Kind != want.Kind || ev.Obj != want.Obj+bases[shard] {
			t.Fatalf("merged event %d = %+v, want shard %d's %+v shifted by %d", k, ev, shard, want, bases[shard])
		}
		if ev.Kind == KindAlloc {
			if ev.Size != want.Size || ev.Refs != want.Refs {
				t.Fatalf("merged event %d = %+v, want size and refs of %+v", k, ev, want)
			}
			if g, w := got.Table.String(ev.Chain), traces[shard].Table.String(want.Chain); g != w {
				t.Fatalf("merged event %d names chain %q, want %q", k, g, w)
			}
			clock[shard] += ev.Size
		}
	}
	for i, tr := range traces {
		if pos[i] != len(tr.Events) {
			t.Fatalf("shard %d: %d of %d events merged", i, pos[i], len(tr.Events))
		}
	}
}

// TestMergeProperties runs checkMerge over hand-built shard sets: uneven
// sizes, interleaved frees, sparse ids, several chains per shard,
// reversed shard order, and an empty shard.
func TestMergeProperties(t *testing.T) {
	a := shardTrace(t, "p", []int64{100, 7, 100, 33}, "big")
	b := shardTrace(t, "p", []int64{10, 10, 10, 10, 10, 10, 10, 10}, "small")
	c := shardTrace(t, "p", []int64{1000}, "huge")

	// Shard with interleaved (non-LIFO) frees, sparse ids, and several
	// chains, exercising memoized re-interning and id rebasing.
	tb := callchain.NewTable()
	d := &Trace{Program: "p", Input: "train", Table: tb}
	c1 := tb.InternNames("main", "alpha")
	c2 := tb.InternNames("main", "beta", "gamma")
	d.Events = []Event{
		{Kind: KindAlloc, Obj: 5, Size: 64, Chain: c1},
		{Kind: KindAlloc, Obj: 9, Size: 16, Chain: c2},
		{Kind: KindFree, Obj: 5},
		{Kind: KindAlloc, Obj: 12, Size: 8, Chain: c1, Refs: 3},
		{Kind: KindFree, Obj: 9},
		// Obj 12 never freed.
	}
	d.FunctionCalls = 3
	d.NonHeapRefs = 11

	cases := [][]*Trace{
		{a},
		{a, b},
		{a, b, c},
		{a, b, c, d},
		{d, c, b, a},
		{&Trace{Program: "p", Input: "train", Table: callchain.NewTable()}, a}, // empty shard
	}
	for _, traces := range cases {
		checkMerge(t, traces)
	}
}

// FuzzMerge builds small legal shard traces from the fuzz input and holds
// Merge to checkMerge. The interpreter keeps every generated trace
// well-formed (dense unique alloc ids per shard, frees only of live
// objects) so any failure is a merge bug, not input garbage.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{2, 0, 10, 1, 20, 0, 200, 1, 1, 0, 0, 1, 30})
	f.Add([]byte{3, 0, 5, 1, 5, 2, 5, 0, 200, 2, 200, 1, 200, 0, 7, 1, 9})
	f.Add([]byte{1, 0, 255, 0, 1, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0])%3 + 1
		data = data[1:]
		traces := make([]*Trace, k)
		type shardState struct {
			next ObjectID
			live []ObjectID
		}
		states := make([]*shardState, k)
		chains := []string{"fa", "fb", "fc", "fd"}
		for i := range traces {
			tb := callchain.NewTable()
			traces[i] = &Trace{Program: "p", Input: "train", Table: tb}
			// Pre-intern so chain ids are valid whatever op order the
			// fuzzer picks; Merge re-interns only referenced chains.
			for _, fn := range chains {
				tb.InternNames("main", fn)
			}
			states[i] = &shardState{}
		}
		for j := 0; j+1 < len(data); j += 2 {
			shard := int(data[j]) % k
			op := data[j+1]
			tr, st := traces[shard], states[shard]
			if op >= 200 && len(st.live) > 0 {
				// Free: pick a live object by the op byte.
				pick := int(op) % len(st.live)
				obj := st.live[pick]
				st.live = append(st.live[:pick], st.live[pick+1:]...)
				tr.Events = append(tr.Events, Event{Kind: KindFree, Obj: obj})
				continue
			}
			// Alloc: size in [1, 128], chain by op byte.
			size := int64(op%128) + 1
			chain := tr.Table.InternNames("main", chains[int(op)%len(chains)])
			tr.Events = append(tr.Events, Event{
				Kind: KindAlloc, Obj: st.next, Size: size, Chain: chain,
				Refs: int64(op % 5),
			})
			st.live = append(st.live, st.next)
			st.next++
		}
		for i, tr := range traces {
			if err := Validate(tr); err != nil {
				t.Fatalf("interpreter emitted invalid trace: %v", err)
			}
			// Trailer totals, distinct per shard so a dropped one shows.
			tr.FunctionCalls = int64(states[i].next)
			tr.NonHeapRefs = int64(len(states[i].live) + i + 1)
		}
		checkMerge(t, traces)
	})
}
