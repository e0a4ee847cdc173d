package plan

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

// samplePlan builds HJ(NL(IdxScan[a]{0}, b {1}), SeqScan[c] {2}) — a
// three-relation plan applying predicates 0 (selection), 1 and 2 (joins).
func samplePlan() *Node {
	scanA := NewIndexScan("a", "a_v", []int{0})
	nl := NewIndexNLJoin(scanA, "b", "b_a", []int{1})
	scanC := NewSeqScan("c", nil)
	return NewHashJoin(nl, scanC, []int{2})
}

func TestConstructorsNormalizePreds(t *testing.T) {
	n := NewSeqScan("r", []int{3, 1, 2})
	if n.Preds[0] != 1 || n.Preds[1] != 2 || n.Preds[2] != 3 {
		t.Fatalf("preds not normalized: %v", n.Preds)
	}
	// Caller's slice is not aliased.
	in := []int{5, 4}
	m := NewSeqScan("r", in)
	in[0] = 99
	if m.Preds[0] == 99 || m.Preds[1] == 99 {
		t.Fatal("constructor aliased caller slice")
	}
}

func TestRelations(t *testing.T) {
	rels := samplePlan().Relations()
	for _, r := range []string{"a", "b", "c"} {
		if !rels[r] {
			t.Errorf("missing relation %s", r)
		}
	}
	if len(rels) != 3 {
		t.Errorf("relations = %v, want 3 entries", rels)
	}
}

func TestNumNodes(t *testing.T) {
	if got := samplePlan().NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
}

func TestPredDepth(t *testing.T) {
	p := samplePlan()
	cases := []struct {
		pred, depth int
		ok          bool
	}{
		{0, 2, true}, // selection at the deepest leaf
		{1, 1, true}, // NL join one level down
		{2, 0, true}, // root hash join
		{9, 0, false},
	}
	for _, tc := range cases {
		d, ok := p.PredDepth(tc.pred)
		if ok != tc.ok || (ok && d != tc.depth) {
			t.Errorf("PredDepth(%d) = (%d,%v), want (%d,%v)", tc.pred, d, ok, tc.depth, tc.ok)
		}
	}
}

func TestFingerprintIdentity(t *testing.T) {
	a, b := samplePlan(), samplePlan()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical plans must share a fingerprint")
	}
	// Any structural difference changes the fingerprint.
	variants := []*Node{
		NewHashJoin(NewIndexNLJoin(NewIndexScan("a", "a_v", []int{0}), "b", "b_a", []int{1}), NewSeqScan("c", []int{3}), []int{2}),
		NewMergeJoin(NewIndexNLJoin(NewIndexScan("a", "a_v", []int{0}), "b", "b_a", []int{1}), NewSeqScan("c", nil), []int{2}),
		NewHashJoin(NewSeqScan("c", nil), NewIndexNLJoin(NewIndexScan("a", "a_v", []int{0}), "b", "b_a", []int{1}), []int{2}),
	}
	for i, v := range variants {
		if v.Fingerprint() == a.Fingerprint() {
			t.Errorf("variant %d collides with base fingerprint", i)
		}
	}
}

func TestFingerprintDistinguishesIndexColumn(t *testing.T) {
	a := NewIndexScan("r", "x", []int{0})
	b := NewIndexScan("r", "y", []int{0})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("index column must be part of the fingerprint")
	}
}

func TestStringEqualsFingerprint(t *testing.T) {
	p := samplePlan()
	if p.String() != p.Fingerprint() {
		t.Fatal("String should render the fingerprint")
	}
}

func TestRender(t *testing.T) {
	out := samplePlan().Render()
	for _, want := range []string{"HJ", "NL b", "IdxScan a", "SeqScan c", "preds=[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	// Indentation encodes depth.
	if !strings.Contains(out, "    IdxScan") {
		t.Errorf("deepest node not indented twice:\n%s", out)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := samplePlan().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		n    *Node
		want string
	}{
		{"scan with child", &Node{Op: OpSeqScan, Relation: "r", Left: NewSeqScan("x", nil)}, "has children"},
		{"scan without relation", &Node{Op: OpSeqScan}, "without relation"},
		{"idxscan without column", &Node{Op: OpIndexScan, Relation: "r"}, "missing relation or index column"},
		{"nl without outer", &Node{Op: OpIndexNLJoin, Relation: "r", IndexColumn: "c", Preds: []int{0}}, "left (outer) child"},
		{"nl without pred", NewIndexNLJoin(NewSeqScan("x", nil), "r", "c", nil), "without join predicate"},
		{"hj one child", &Node{Op: OpHashJoin, Left: NewSeqScan("x", nil), Preds: []int{0}}, "two children"},
		{"hj no pred", NewHashJoin(NewSeqScan("x", nil), NewSeqScan("y", nil), nil), "without join predicate"},
		{"dup pred", NewHashJoin(NewSeqScan("x", []int{1}), NewSeqScan("y", nil), []int{1}), "applied twice"},
		{"unknown op", &Node{Op: Op(42)}, "unknown operator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.n.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestOpPredicatesAndString(t *testing.T) {
	want := map[Op]string{OpSeqScan: "SeqScan", OpIndexScan: "IdxScan", OpIndexNLJoin: "NL", OpHashJoin: "HJ", OpMergeJoin: "MJ"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%v.String() = %s, want %s", int(op), op.String(), s)
		}
	}
	if !strings.Contains(Op(77).String(), "77") {
		t.Error("unknown Op should include its value")
	}
}

func TestWalkOrder(t *testing.T) {
	var ops []Op
	samplePlan().Walk(func(n *Node) { ops = append(ops, n.Op) })
	want := []Op{OpHashJoin, OpIndexNLJoin, OpIndexScan, OpSeqScan}
	if len(ops) != len(want) {
		t.Fatalf("Walk visited %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("Walk order %v, want %v (pre-order)", ops, want)
		}
	}
}

// TestFingerprintInjectiveOnRandomTrees property-checks that structurally
// different random plan trees get different fingerprints, and identical
// constructions get identical ones.
func TestFingerprintInjectiveOnRandomTrees(t *testing.T) {
	build := func(relSeed, predSeed uint8, useHJ bool) *Node {
		rels := []string{"r0", "r1", "r2", "r3"}
		left := NewSeqScan(rels[relSeed%4], []int{int(predSeed % 5)})
		right := NewSeqScan(rels[(relSeed+1)%4], nil)
		if useHJ {
			return NewHashJoin(left, right, []int{int(predSeed%5) + 5})
		}
		return NewMergeJoin(left, right, []int{int(predSeed%5) + 5})
	}
	f := func(a, b uint8, hjA, hjB bool) bool {
		pa, pb := build(a, a, hjA), build(b, b, hjB)
		same := a%4 == b%4 && a%5 == b%5 && hjA == hjB
		return (pa.Fingerprint() == pb.Fingerprint()) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := samplePlan()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != orig.Fingerprint() {
		t.Fatalf("round trip changed plan: %s -> %s", orig, &back)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var n Node
	if err := json.Unmarshal([]byte(`{"op":"FrobJoin"}`), &n); err == nil {
		t.Error("unknown operator accepted")
	}
	// Structurally invalid: a SeqScan with a child.
	bad := `{"op":"SeqScan","relation":"r","left":{"op":"SeqScan","relation":"x"}}`
	if err := json.Unmarshal([]byte(bad), &n); err == nil {
		t.Error("invalid structure accepted")
	}
}

func TestAggregateNode(t *testing.T) {
	agg := NewAggregate(samplePlan())
	if err := agg.Validate(); err != nil {
		t.Fatal(err)
	}
	if agg.Op.String() != "AGG" {
		t.Errorf("AGG renders as %s", agg.Op)
	}
	if err := (&Node{Op: OpAggregate}).Validate(); err == nil {
		t.Error("childless AGG accepted")
	}
	if err := (&Node{Op: OpAggregate, Left: NewSeqScan("r", nil), Preds: []int{1}}).Validate(); err == nil {
		t.Error("AGG with predicates accepted")
	}
	// JSON round trip includes the aggregate.
	data, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != agg.Fingerprint() {
		t.Fatal("AGG lost in round trip")
	}
}
