// Package plan defines physical execution plan trees: the artifacts the
// optimizer (internal/optimizer) produces, the cost model (internal/cost)
// prices, the executor (internal/exec) runs, and the bouquet machinery
// (internal/core) switches between.
//
// Plans are immutable after construction. Identity is structural: two plans
// with the same fingerprint are the same plan.
//
// Nodes may be shared. The optimizer hash-conses the nodes it builds, so
// within one optimizer equal subplans are one pointer, and one node can sit
// in many plans of a diagram or bouquet; that is why a POSP plan diagram,
// filled by one optimizer or from one snapshot, numbers its plans by
// pointer. Within one tree every node is distinct (its subtrees cover
// disjoint relations), so a map keyed by *Node is sound only for state
// about one tree — per execution or per Detail walk, as internal/exec and
// internal/cost keep theirs — or for plans of one interner. State that
// outlives a tree or spans plans of any origin keys on Fingerprint, as the
// exec reuse cache does.
package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op enumerates physical operators.
type Op int

const (
	// OpSeqScan reads a base relation sequentially, applying its
	// selection predicates on the fly.
	OpSeqScan Op = iota
	// OpIndexScan reads a base relation through an index on one
	// selection predicate's column, applying remaining selections as
	// residual filters.
	OpIndexScan
	// OpIndexNLJoin is an index nested-loops join: for each outer (left)
	// row, probe an index on the inner (right) base relation's join
	// column.
	OpIndexNLJoin
	// OpHashJoin builds a hash table on the right child and probes it
	// with the left child.
	OpHashJoin
	// OpMergeJoin sorts both children on the join keys (costing treats
	// the sorts as part of the join) and merges.
	OpMergeJoin
	// OpAggregate is a scalar (group-less) aggregate over its child:
	// the decision-support queries' COUNT(*) root. It applies no
	// predicates, reads no column of its child, and emits exactly one
	// row, [count].
	OpAggregate
	// OpAntiJoin is a hash anti-join (NOT EXISTS): outer (Left) rows
	// pass iff no row of the inner base relation (Relation/IndexColumn)
	// matches on the anti-join predicate. The output schema is the
	// outer's — the inner is consumed by the existential check.
	OpAntiJoin
	// OpGroupAggregate is a hash aggregate grouping its child's rows by
	// one column (Relation/IndexColumn name the grouping column) and
	// emitting one (group, count) row per distinct value.
	OpGroupAggregate
)

// String implements fmt.Stringer with the paper's operator abbreviations.
func (o Op) String() string {
	switch o {
	case OpSeqScan:
		return "SeqScan"
	case OpIndexScan:
		return "IdxScan"
	case OpIndexNLJoin:
		return "NL"
	case OpHashJoin:
		return "HJ"
	case OpMergeJoin:
		return "MJ"
	case OpAggregate:
		return "AGG"
	case OpAntiJoin:
		return "ANTI"
	case OpGroupAggregate:
		return "GAGG"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Node is one operator of a physical plan tree.
type Node struct {
	// Op is the physical operator.
	Op Op

	// Relation is the base relation name (scans and the inner side of
	// OpIndexNLJoin, where it names the probed relation).
	Relation string
	// IndexColumn is the probed column for OpIndexScan and
	// OpIndexNLJoin.
	IndexColumn string

	// Preds are the predicate IDs applied at this node: selection
	// predicates at scans, join predicates at joins. Order is
	// normalized (ascending) at construction.
	Preds []int

	// Left and Right are the children. Scans have none. OpIndexNLJoin
	// has only Left (the outer); its inner is the Relation/IndexColumn
	// pair, probed per outer row.
	Left  *Node
	Right *Node

	// fp memoizes Fingerprint. Nodes are immutable after construction, so
	// the canonical string is computed at most a handful of times even
	// under concurrent access; the atomic makes the lazy fill race-free
	// (recomputation is idempotent). Compiling never fills it
	// (AppendFingerprint does not): a compiled plan carries a string only
	// once something keys on it, such as an engine run's reuse cache.
	fp atomic.Pointer[string]
}

// NewSeqScan builds a sequential scan of rel applying the given selection
// predicate IDs.
func NewSeqScan(rel string, preds []int) *Node {
	return &Node{Op: OpSeqScan, Relation: rel, Preds: normPreds(preds)}
}

// NewIndexScan builds an index scan of rel via the index on col (which must
// be the column of the predicate driving the scan), applying preds (the
// driving predicate plus residual filters).
func NewIndexScan(rel, col string, preds []int) *Node {
	return &Node{Op: OpIndexScan, Relation: rel, IndexColumn: col, Preds: normPreds(preds)}
}

// NewIndexNLJoin builds an index nested-loops join with outer as the outer
// input, probing innerRel's index on innerCol, applying the join predicate
// IDs in preds.
func NewIndexNLJoin(outer *Node, innerRel, innerCol string, preds []int) *Node {
	return &Node{Op: OpIndexNLJoin, Relation: innerRel, IndexColumn: innerCol, Preds: normPreds(preds), Left: outer}
}

// NewHashJoin builds a hash join probing with left and building on right.
func NewHashJoin(left, right *Node, preds []int) *Node {
	return &Node{Op: OpHashJoin, Preds: normPreds(preds), Left: left, Right: right}
}

// NewMergeJoin builds a sort-merge join of left and right.
func NewMergeJoin(left, right *Node, preds []int) *Node {
	return &Node{Op: OpMergeJoin, Preds: normPreds(preds), Left: left, Right: right}
}

// NewAggregate builds a scalar aggregate over child.
func NewAggregate(child *Node) *Node {
	return &Node{Op: OpAggregate, Left: child}
}

// NewAntiJoin builds a hash anti-join: outer rows pass iff no innerRel row
// matches on the single anti-join predicate pred (innerCol is the probed
// inner column).
func NewAntiJoin(outer *Node, innerRel, innerCol string, pred int) *Node {
	return &Node{Op: OpAntiJoin, Relation: innerRel, IndexColumn: innerCol, Preds: []int{pred}, Left: outer}
}

// NewGroupAggregate builds a hash aggregate over child, grouping by
// rel.col.
func NewGroupAggregate(child *Node, rel, col string) *Node {
	return &Node{Op: OpGroupAggregate, Relation: rel, IndexColumn: col, Left: child}
}

func normPreds(preds []int) []int {
	out := make([]int, len(preds))
	copy(out, preds)
	sort.Ints(out)
	return out
}

// Relations returns the set of base relations in the subtree rooted at n.
func (n *Node) Relations() map[string]bool {
	out := make(map[string]bool)
	n.visit(func(m *Node) {
		if m.Relation != "" {
			out[m.Relation] = true
		}
	})
	return out
}

// visit walks the subtree pre-order.
func (n *Node) visit(f func(*Node)) {
	f(n)
	if n.Left != nil {
		n.Left.visit(f)
	}
	if n.Right != nil {
		n.Right.visit(f)
	}
}

// Walk calls f on every node in pre-order.
func (n *Node) Walk(f func(*Node)) { n.visit(f) }

// NumNodes returns the operator count of the subtree.
func (n *Node) NumNodes() int {
	count := 0
	n.visit(func(*Node) { count++ })
	return count
}

// PredDepth returns the depth (root = 0) of the shallowest node applying
// predicate id, and the *height from the leaves* of that node as the second
// value; ok is false if the predicate is not applied in this subtree.
//
// The bouquet AxisPlans heuristic (§5.1) prefers plans whose error-prone
// node occurs "deepest in the plan-tree", i.e. earliest in evaluation
// order — that corresponds to the maximum depth value returned here.
func (n *Node) PredDepth(id int) (depth int, ok bool) {
	best := -1
	var rec func(m *Node, d int)
	rec = func(m *Node, d int) {
		for _, p := range m.Preds {
			if p == id && d > best {
				best = d
			}
		}
		if m.Left != nil {
			rec(m.Left, d+1)
		}
		if m.Right != nil {
			rec(m.Right, d+1)
		}
	}
	rec(n, 0)
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Fingerprint returns a canonical string uniquely identifying the plan's
// structure. Plans compare equal iff their fingerprints are equal. The
// string is memoized on the node on first use (plans are immutable), so
// repeated keying — an engine run's reuse-cache keys, perturbed costing —
// does not rebuild it. A caller that only compares, and must not leave a
// string on the node, uses AppendFingerprint.
func (n *Node) Fingerprint() string {
	if p := n.fp.Load(); p != nil {
		return *p
	}
	var buf [128]byte
	s := string(n.AppendFingerprint(buf[:0]))
	n.fp.Store(&s)
	return s
}

// AppendFingerprint appends the plan's fingerprint to b and returns the
// extended buffer, memoizing nothing on the node: the optimizer's
// exact-cost tie-break keeps its strings on the optimizer, and a
// snapshot's duplicate check in scratch. A subtree whose fingerprint is
// already memoized is pasted from the memo.
func (n *Node) AppendFingerprint(b []byte) []byte {
	if p := n.fp.Load(); p != nil {
		return append(b, *p...)
	}
	b = append(b, n.Op.String()...)
	if n.Relation != "" {
		b = append(b, '[')
		b = append(b, n.Relation...)
		if n.IndexColumn != "" {
			b = append(b, '.')
			b = append(b, n.IndexColumn...)
		}
		b = append(b, ']')
	}
	if len(n.Preds) > 0 {
		b = append(b, '{')
		for i, p := range n.Preds {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, '}')
	}
	if n.Left != nil || n.Right != nil {
		b = append(b, '(')
		if n.Left != nil {
			b = n.Left.AppendFingerprint(b)
		}
		if n.Right != nil {
			b = append(b, ',')
			b = n.Right.AppendFingerprint(b)
		}
		b = append(b, ')')
	}
	return b
}

// String renders a compact one-line form, e.g. "HJ(NL(IdxScan[part],lineitem),SeqScan[orders])".
func (n *Node) String() string { return n.Fingerprint() }

// Render returns a multi-line indented tree rendering for explain output.
func (n *Node) Render() string {
	var sb strings.Builder
	n.render(&sb, 0)
	return sb.String()
}

func (n *Node) render(sb *strings.Builder, indent int) {
	sb.WriteString(strings.Repeat("  ", indent))
	sb.WriteString(n.Op.String())
	if n.Relation != "" {
		fmt.Fprintf(sb, " %s", n.Relation)
		if n.IndexColumn != "" {
			fmt.Fprintf(sb, " (index on %s)", n.IndexColumn)
		}
	}
	if len(n.Preds) > 0 {
		fmt.Fprintf(sb, " preds=%v", n.Preds)
	}
	sb.WriteByte('\n')
	if n.Left != nil {
		n.Left.render(sb, indent+1)
	}
	if n.Right != nil {
		n.Right.render(sb, indent+1)
	}
}

// Validate checks structural sanity: scans are leaves, joins have the
// required children, every node with an index names a column, and no
// predicate is applied twice.
func (n *Node) Validate() error {
	seen := make(map[int]bool)
	var rec func(m *Node) error
	rec = func(m *Node) error {
		switch m.Op {
		case OpSeqScan:
			if m.Left != nil || m.Right != nil {
				return fmt.Errorf("plan: SeqScan %s has children", m.Relation)
			}
			if m.Relation == "" {
				return fmt.Errorf("plan: SeqScan without relation")
			}
		case OpIndexScan:
			if m.Left != nil || m.Right != nil {
				return fmt.Errorf("plan: IdxScan %s has children", m.Relation)
			}
			if m.Relation == "" || m.IndexColumn == "" {
				return fmt.Errorf("plan: IdxScan missing relation or index column")
			}
		case OpIndexNLJoin:
			if m.Left == nil || m.Right != nil {
				return fmt.Errorf("plan: NL join must have exactly a left (outer) child")
			}
			if m.Relation == "" || m.IndexColumn == "" {
				return fmt.Errorf("plan: NL join missing inner relation or index column")
			}
			if len(m.Preds) == 0 {
				return fmt.Errorf("plan: NL join without join predicate")
			}
		case OpHashJoin, OpMergeJoin:
			if m.Left == nil || m.Right == nil {
				return fmt.Errorf("plan: %s must have two children", m.Op)
			}
			if len(m.Preds) == 0 {
				return fmt.Errorf("plan: %s without join predicate", m.Op)
			}
		case OpAggregate:
			if m.Left == nil || m.Right != nil {
				return fmt.Errorf("plan: AGG must have exactly one child")
			}
			if len(m.Preds) > 0 {
				return fmt.Errorf("plan: AGG applies no predicates")
			}
		case OpAntiJoin:
			if m.Left == nil || m.Right != nil {
				return fmt.Errorf("plan: ANTI must have exactly a left (outer) child")
			}
			if m.Relation == "" || m.IndexColumn == "" {
				return fmt.Errorf("plan: ANTI missing inner relation or column")
			}
			if len(m.Preds) != 1 {
				return fmt.Errorf("plan: ANTI applies exactly one predicate")
			}
		case OpGroupAggregate:
			if m.Left == nil || m.Right != nil {
				return fmt.Errorf("plan: GAGG must have exactly one child")
			}
			if m.Relation == "" || m.IndexColumn == "" {
				return fmt.Errorf("plan: GAGG missing grouping column")
			}
			if len(m.Preds) > 0 {
				return fmt.Errorf("plan: GAGG applies no predicates")
			}
		default:
			return fmt.Errorf("plan: unknown operator %d", int(m.Op))
		}
		for _, p := range m.Preds {
			if seen[p] {
				return fmt.Errorf("plan: predicate %d applied twice", p)
			}
			seen[p] = true
		}
		if m.Left != nil {
			if err := rec(m.Left); err != nil {
				return err
			}
		}
		if m.Right != nil {
			if err := rec(m.Right); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(n)
}
