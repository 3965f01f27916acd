package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/callchain"
)

// SiteRecord is the serialized form of one trained allocation site: the
// call-chain as function names, the rounded size, summary statistics, and
// the quantile-histogram markers. The set of admitted records is the
// paper's "database of allocation sites" that ships with the optimized
// allocator (§5.1).
type SiteRecord struct {
	Chain       []string  `json:"chain"`
	Size        int64     `json:"size"`
	Objects     int64     `json:"objects"`
	Bytes       int64     `json:"bytes"`
	ShortCount  int64     `json:"short_count"`
	MaxLifetime int64     `json:"max_lifetime"`
	Quantiles   []float64 `json:"quantiles"` // histogram marker heights
	Admitted    bool      `json:"admitted"`
}

// DBFile is the serialized site database.
type DBFile struct {
	Config  Config       `json:"config"`
	Program string       `json:"program,omitempty"`
	Sites   []SiteRecord `json:"sites"`
}

// Export converts the database to its serializable form, sites sorted by
// descending byte volume for human inspection.
func (db *DB) Export(program string) DBFile {
	out := DBFile{Config: db.Config, Program: program}
	for key, st := range db.Sites {
		fs := db.Table.Funcs(key.Chain)
		names := make([]string, len(fs))
		for i, f := range fs {
			names[i] = db.Table.FuncName(f)
		}
		_, heights := st.Hist.Markers()
		out.Sites = append(out.Sites, SiteRecord{
			Chain:       names,
			Size:        key.Size,
			Objects:     st.Objects,
			Bytes:       st.Bytes,
			ShortCount:  st.ShortCount,
			MaxLifetime: st.MaxLifetime,
			Quantiles:   heights,
			Admitted:    st.admitted(db.Config.AdmitFraction),
		})
	}
	sort.Slice(out.Sites, func(i, j int) bool {
		a, b := out.Sites[i], out.Sites[j]
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if c := strings.Compare(strings.Join(a.Chain, ">"), strings.Join(b.Chain, ">")); c != 0 {
			return c < 0
		}
		return a.Size < b.Size
	})
	return out
}

// WriteJSON serializes the database as indented JSON.
func (db *DB) WriteJSON(w io.Writer, program string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db.Export(program))
}

// ReadPredictor loads a serialized database and reconstructs the predictor
// from its admitted sites. Only the chain, size, and admitted flag are
// needed; statistics are informational.
func ReadPredictor(r io.Reader) (*Predictor, error) {
	var file DBFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("profile: decoding site database: %w", err)
	}
	return file.Predictor()
}

// Predictor reconstructs a predictor from a deserialized database file.
func (f DBFile) Predictor() (*Predictor, error) {
	cfg := f.Config.withDefaults()
	tb := callchain.NewTable()
	keys := make(map[SiteKey]struct{})
	for _, rec := range f.Sites {
		if !rec.Admitted {
			continue
		}
		if rec.Size < 0 {
			return nil, fmt.Errorf("profile: negative size in site record")
		}
		chain := tb.InternNames(rec.Chain...)
		keys[SiteKey{Chain: chain, Size: cfg.roundSize(rec.Size)}] = struct{}{}
	}
	return newPredictor(cfg, tb, keys), nil
}
