package spell

import (
	"bytes"
	"testing"

	"forestview/internal/microarray"
)

// FuzzEngineFromPCL drives arbitrary PCL bytes through the reader into the
// engine's slabs: for every parsed dataset with at least two genes, a
// search on its first two genes must agree with ReferenceSearch — which
// recomputes every z row from the raw dataset — to 1e-12, or both must
// refuse the query. Inf, constant, all-missing and ragged rows are among
// the checked-in seeds under testdata/fuzz/FuzzEngineFromPCL; explore
// further with
//
//	go test ./internal/spell -run '^$' -fuzz '^FuzzEngineFromPCL$' -fuzztime 30s
func FuzzEngineFromPCL(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		ds, err := microarray.ReadPCL(bytes.NewReader(in), "fuzz")
		if err != nil || ds.NumGenes() < 2 {
			return
		}
		e, err := NewEngine([]*microarray.Dataset{ds})
		if err != nil {
			t.Fatalf("NewEngine on a parsed dataset: %v", err)
		}
		query := []string{ds.Genes[0].ID, ds.Genes[1].ID}
		for _, opt := range []Options{{}, {IncludeQuery: true}} {
			got, gotErr := e.Search(query, opt)
			want, wantErr := e.ReferenceSearch(query, opt)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("query %q %+v: Search error %v, ReferenceSearch error %v", query, opt, gotErr, wantErr)
			}
			if gotErr == nil {
				assertResultsMatch(t, got, want, 1e-12)
			}
		}
	})
}
