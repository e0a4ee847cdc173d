package catalog

import "testing"

// TestAccessorsAllocFree pins the accessors the cost package calls across
// the package boundary: MustRelation, Index and Pages, which
// cost.NewCoster's relation table reads once per relation, and Column,
// which the node path calls for a group aggregate. None may allocate.
// Index concatenates its map key; the key does not escape, so it stays
// in the runtime's 32-byte stack buffer — this test is the tripwire if
// a benchmark catalog ever grows relation.column names past that.
func TestAccessorsAllocFree(t *testing.T) {
	cat := TPCHLike(1.0)
	if got := testing.AllocsPerRun(100, func() { cat.MustRelation("lineitem") }); got > 0 {
		t.Errorf("MustRelation allocates %.0f/call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { cat.Index("lineitem", "l_orderkey") }); got > 0 {
		t.Errorf("Index allocates %.0f/call, want 0", got)
	}
	rel := cat.MustRelation("lineitem")
	if got := testing.AllocsPerRun(100, func() { rel.Pages(DefaultPageSize) }); got > 0 {
		t.Errorf("Pages allocates %.0f/call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { rel.Column("l_orderkey") }); got > 0 {
		t.Errorf("Column allocates %.0f/call, want 0", got)
	}
}
