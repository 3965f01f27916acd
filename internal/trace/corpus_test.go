package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFuzzCorpusPresent guards the committed seed corpus: `go test` runs
// every testdata/fuzz entry through its fuzz target in unit mode, so the
// corpus is regression coverage for the codec edge cases (truncation,
// corruption, adversarial length claims) — it must not silently vanish,
// and every entry must be in the corpus v1 encoding.
func TestFuzzCorpusPresent(t *testing.T) {
	for target, minEntries := range map[string]int{
		"FuzzReadBinary":       5,
		"FuzzReadBinaryBlocks": 9,
		"FuzzReadText":         3,
		"FuzzMerge":            3,
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s corpus missing: %v", target, err)
		}
		if len(entries) < minEntries {
			t.Errorf("%s corpus has %d entries, want >= %d", target, len(entries), minEntries)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(data), "go test fuzz v1\n") {
				t.Errorf("%s/%s: not in corpus v1 format", target, e.Name())
			}
		}
	}
}
