package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// TestMergeDigest pins the exact LPTRACE2 bytes Merge produces over three
// generated cfrac shards: interleave order, id rebasing, the re-interned
// chain table and the trailer totals all feed the digest.
func TestMergeDigest(t *testing.T) {
	const want = "64878ffa6ceb61d4695bfac1544ce73c88d1605f2c2d59962f1729ec313f15f8"
	m := synth.ByName("cfrac")
	var shards []*trace.Trace
	for _, seed := range []uint64{1, 2, 3} {
		tr, err := m.Generate(synth.Config{Input: synth.Train, Seed: seed, Scale: 0.005})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, tr)
	}
	merged, err := trace.Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := trace.WriteBinary(&b, merged); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("merged trace digest %s, want %s (%d events)", got, want, len(merged.Events))
	}
}
