package posp_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/posp"
)

// TestCompiledDiagramsHoldNoIndex: a compiled bouquet's diagram keeps its
// per-location plan IDs, costs and plans, not the index it was numbered
// through, on a sample of the corpus.
func TestCompiledDiagramsHoldNoIndex(t *testing.T) {
	for i := range 40 {
		b, err := corpus.Compile(corpus.GenerateSpec(20140622, i))
		if err != nil {
			t.Fatal(err)
		}
		if posp.HoldsIndex(b.Diagram) {
			t.Errorf("query %d: the compiled diagram still holds its numbering index", i)
		}
	}
}
