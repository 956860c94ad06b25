package microarray

import (
	"bytes"
	"testing"
)

// FuzzReadPCL feeds arbitrary bytes to the PCL reader, the first parser
// every compendium byte passes through before it reaches a SPELL slab. The
// reader must never panic; whatever it accepts must be rectangular (one
// cell per experiment in every row, one gene weight per row, one
// experiment weight per column); and WritePCL's rendering of it must read
// back with the same genes and shape. The checked-in corpus under
// testdata/fuzz/FuzzReadPCL (Inf, constant, all-missing and ragged rows
// among the seeds) runs as an ordinary test; explore further with
//
//	go test ./internal/microarray -run '^$' -fuzz '^FuzzReadPCL$' -fuzztime 30s
func FuzzReadPCL(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		ds, err := ReadPCL(bytes.NewReader(in), "fuzz")
		if err != nil {
			return
		}
		assertRectangular(t, ds)
		var buf bytes.Buffer
		if err := WritePCL(&buf, ds); err != nil {
			t.Fatalf("WritePCL: %v", err)
		}
		back, err := ReadPCL(&buf, "fuzz")
		if err != nil {
			t.Fatalf("re-reading WritePCL output: %v\n%q", err, buf.String())
		}
		assertRectangular(t, back)
		if back.NumGenes() != ds.NumGenes() || back.NumExperiments() != ds.NumExperiments() {
			t.Fatalf("round trip changed shape %dx%d to %dx%d",
				ds.NumGenes(), ds.NumExperiments(), back.NumGenes(), back.NumExperiments())
		}
		for g := range ds.Genes {
			if back.Genes[g].ID != ds.Genes[g].ID {
				t.Fatalf("round trip changed gene %d ID %q to %q", g, ds.Genes[g].ID, back.Genes[g].ID)
			}
		}
	})
}

func assertRectangular(t *testing.T, ds *Dataset) {
	t.Helper()
	nE := ds.NumExperiments()
	if len(ds.Data) != ds.NumGenes() || len(ds.GWeights) != ds.NumGenes() || len(ds.EWeights) != nE {
		t.Fatalf("%d genes with %d rows, %d gene weights; %d experiments with %d weights",
			ds.NumGenes(), len(ds.Data), len(ds.GWeights), nE, len(ds.EWeights))
	}
	for g := range ds.Data {
		if len(ds.Row(g)) != nE {
			t.Fatalf("row %d has %d cells, want %d", g, len(ds.Row(g)), nE)
		}
	}
}
