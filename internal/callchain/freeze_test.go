package callchain

import (
	"strings"
	"testing"
)

// mustPanic runs f and fails unless it panics with a message naming the
// frozen table.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s on a frozen table did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, "frozen") {
			t.Fatalf("%s panicked without naming the frozen table: %v", what, r)
		}
	}()
	f()
}

func TestLookupNeverInterns(t *testing.T) {
	tb := NewTable()
	c := tb.InternNames("main", "parse", "xmalloc")
	if id, ok := tb.Lookup("main", "parse", "xmalloc"); !ok || id != c {
		t.Fatalf("Lookup of an interned chain = %d,%v, want %d,true", id, ok, c)
	}
	if id, ok := tb.Lookup(); !ok || id != 0 {
		t.Fatalf("Lookup of the empty chain = %d,%v, want 0,true", id, ok)
	}
	nc, nf := tb.NumChains(), tb.NumFuncs()
	for _, names := range [][]string{
		{"main", "parse"},            // known functions, unknown chain
		{"main", "eval", "xmalloc"},  // unknown function
		{"xmalloc", "parse", "main"}, // known functions, other order
	} {
		if _, ok := tb.Lookup(names...); ok {
			t.Errorf("Lookup(%v) found a chain that was never interned", names)
		}
	}
	if tb.NumChains() != nc || tb.NumFuncs() != nf {
		t.Fatalf("Lookup interned: chains %d->%d funcs %d->%d", nc, tb.NumChains(), nf, tb.NumFuncs())
	}
}

func TestFrozenTableRejectsNewContent(t *testing.T) {
	tb := NewTable()
	rec := tb.InternNames("main", "f", "f", "g")
	plain := tb.InternNames("main", "g")
	tb.Freeze()
	nc, nf := tb.NumChains(), tb.NumFuncs()

	// Hits stay free: existing names and chains, and the derived chains
	// Freeze precomputed.
	if tb.Func("main") != tb.Funcs(plain)[0] {
		t.Error("Func hit returned a different id")
	}
	if tb.InternNames("main", "g") != plain {
		t.Error("InternNames hit returned a different id")
	}
	if got := tb.String(tb.EliminateRecursion(rec)); got != "main>f>g" {
		t.Errorf("EliminateRecursion on a frozen table = %q", got)
	}
	if tb.NumChains() != nc || tb.NumFuncs() != nf {
		t.Fatalf("hits changed the table: chains %d->%d funcs %d->%d", nc, tb.NumChains(), nf, tb.NumFuncs())
	}
	tb.Freeze() // idempotent
	if tb.NumChains() != nc {
		t.Fatal("second Freeze interned new chains")
	}

	mustPanic(t, "Func", func() { tb.Func("new") })
	mustPanic(t, "Intern", func() { tb.InternNames("g", "main") })
	mustPanic(t, "SubChain", func() { tb.SubChain(rec, 2) })
	mustPanic(t, "AssignEncryptionIDs", func() { tb.AssignEncryptionIDs(1) })
	mustPanic(t, "AssignEncryptionIDsMinimizing", func() { tb.AssignEncryptionIDsMinimizing(1, []ChainID{rec}, 2) })
}

func TestCloneIsUnfrozenAndIndependent(t *testing.T) {
	tb := NewTable()
	a := tb.InternNames("main", "a", "m")
	b := tb.InternNames("main", "b", "m")
	tb.Freeze()
	nc, nf := tb.NumChains(), tb.NumFuncs()

	c := tb.Clone()
	if c.NumChains() != nc || c.NumFuncs() != nf || c.String(a) != tb.String(a) || c.String(b) != tb.String(b) {
		t.Fatal("Clone does not carry the original's ids")
	}
	// The clone is open: derive sub-chains, a new function, and
	// encryption ids on it.
	sub := c.SubChain(a, 2)
	if got := c.String(sub); got != "a>m" {
		t.Fatalf("SubChain on clone = %q", got)
	}
	c.InternNames("main", "z")
	c.AssignEncryptionIDs(7)
	if tb.NumChains() != nc || tb.NumFuncs() != nf || tb.HasEncryptionIDs() {
		t.Fatalf("clone writes leaked into the original: chains %d->%d funcs %d->%d enc %v",
			nc, tb.NumChains(), nf, tb.NumFuncs(), tb.HasEncryptionIDs())
	}
	if _, ok := tb.Lookup("a", "m"); ok {
		t.Fatal("original sees a chain interned into the clone")
	}
	// And the other way round: a clone of an unfrozen table does not see
	// what the original interns later.
	open := NewTable()
	open.InternNames("x")
	oc := open.Clone()
	open.InternNames("y")
	if _, ok := oc.Lookup("y"); ok {
		t.Fatal("clone sees a chain interned into the original after cloning")
	}
}
