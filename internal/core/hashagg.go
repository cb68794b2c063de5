package core

import (
	"context"
	"fmt"
	"time"

	"vectorwise/internal/hashtable"
	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// AggFn names an aggregate function.
type AggFn uint8

// Aggregate functions. Avg decomposes into Sum/Count at output time
// (and the parallelizer rewrites it the same way across the exchange).
const (
	AggSum AggFn = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate column: a function over an input expression
// (nil for COUNT(*)).
type AggSpec struct {
	Fn  AggFn
	Arg Expr
}

// resultKind returns the output kind of the aggregate.
func (a AggSpec) resultKind() vtypes.Kind {
	switch a.Fn {
	case AggCount, AggCountStar:
		return vtypes.KindI64
	case AggAvg:
		return vtypes.KindF64
	default:
		return a.Arg.Kind()
	}
}

// keyCol stores one grouping column densely, per storage class.
type keyCol struct {
	kind vtypes.Kind
	i64  []int64
	f64  []float64
	str  []string
	b    []bool
}

func (k *keyCol) appendFrom(v *vector.Vector, i int32) {
	switch k.kind.StorageClass() {
	case vtypes.ClassI64:
		k.i64 = append(k.i64, v.I64[i])
	case vtypes.ClassF64:
		k.f64 = append(k.f64, v.F64[i])
	case vtypes.ClassStr:
		k.str = append(k.str, v.Str[i])
	case vtypes.ClassBool:
		k.b = append(k.b, v.B[i])
	}
}

func (k *keyCol) equalAt(g uint32, v *vector.Vector, i int32) bool {
	switch k.kind.StorageClass() {
	case vtypes.ClassI64:
		return k.i64[g] == v.I64[i]
	case vtypes.ClassF64:
		return k.f64[g] == v.F64[i]
	case vtypes.ClassStr:
		return k.str[g] == v.Str[i]
	default:
		return k.b[g] == v.B[i]
	}
}

func (k *keyCol) get(g int) vtypes.Value {
	switch k.kind.StorageClass() {
	case vtypes.ClassI64:
		return vtypes.Value{Kind: k.kind, I64: k.i64[g]}
	case vtypes.ClassF64:
		return vtypes.Value{Kind: k.kind, F64: k.f64[g]}
	case vtypes.ClassStr:
		return vtypes.Value{Kind: k.kind, Str: k.str[g]}
	default:
		return vtypes.Value{Kind: k.kind, B: k.b[g]}
	}
}

// aggState holds one aggregate's accumulators across all groups.
// Aggregates with an argument skip NULL inputs; a SUM, AVG, MIN or MAX
// whose group saw no non-NULL input is NULL (COUNT is 0).
type aggState struct {
	spec AggSpec
	i64  []int64
	f64  []float64
	str  []string
	cnt  []int64 // Avg's count side
	// seen marks groups with a non-NULL input: Min/Max always; Sum
	// only once its argument has shown a NULL (before that, every
	// group that exists has had one).
	seen []bool
}

func (a *aggState) grow() {
	switch a.spec.Fn {
	case AggCount, AggCountStar:
		a.i64 = append(a.i64, 0)
	case AggAvg:
		a.f64 = append(a.f64, 0)
		a.cnt = append(a.cnt, 0)
	case AggSum:
		if a.seen != nil {
			a.seen = append(a.seen, false)
		}
		if a.spec.Arg.Kind().StorageClass() == vtypes.ClassF64 {
			a.f64 = append(a.f64, 0)
		} else {
			a.i64 = append(a.i64, 0)
		}
	case AggMin, AggMax:
		a.seen = append(a.seen, false)
		switch a.spec.Arg.Kind().StorageClass() {
		case vtypes.ClassF64:
			a.f64 = append(a.f64, 0)
		case vtypes.ClassStr:
			a.str = append(a.str, "")
		default:
			a.i64 = append(a.i64, 0)
		}
	}
}

// HashAggregate implements vectorized grouped aggregation: each input
// batch is translated to a dense group-id vector via the shared
// open-addressing hash table (one batched FindOrInsert per vector),
// then one Agg* kernel per aggregate updates columnar accumulators.
// Grouping and aggregation both run one kernel per vector.
type HashAggregate struct {
	child     Operator
	groupBy   []Expr
	aggs      []AggSpec
	schema    *vtypes.Schema
	vecSize   int
	keys      []*keyCol
	states    []*aggState
	ht        *hashtable.Table
	numGroups int

	hashes  []uint64
	groups  []uint32
	keyVecs []*vector.Vector // per-batch key columns, hoisted (reused)
	argSel  []int32          // live non-NULL rows of a nullable argument
	eqFn    hashtable.EqFn
	allocFn hashtable.NewFn
	sink    *HashStatsSink
	probeNs int64 // cumulative FindOrInsert time (agg_probe_ns)
	built   bool
	fed     bool // the child has produced a row
	outPos  int
	ctx     context.Context
}

// NewHashAggregate builds the operator; names labels group columns then
// aggregate columns.
func NewHashAggregate(child Operator, groupBy []Expr, aggs []AggSpec, names []string) *HashAggregate {
	cols := make([]vtypes.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, vtypes.Column{Name: names[i], Kind: g.Kind()})
	}
	for i, a := range aggs {
		cols = append(cols, vtypes.Column{Name: names[len(groupBy)+i], Kind: a.resultKind()})
	}
	h := &HashAggregate{
		child: child, groupBy: groupBy, aggs: aggs,
		schema:  &vtypes.Schema{Cols: cols},
		vecSize: vector.DefaultSize,
	}
	return h
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *vtypes.Schema { return h.schema }

// SetContext implements ContextSetter.
func (h *HashAggregate) SetContext(ctx context.Context) { h.ctx = ctx }

// SetStatsSink directs this operator's table stats to sink on Close.
func (h *HashAggregate) SetStatsSink(s *HashStatsSink) { h.sink = s }

// Open implements Operator.
func (h *HashAggregate) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	h.keys = make([]*keyCol, len(h.groupBy))
	for i, g := range h.groupBy {
		h.keys[i] = &keyCol{kind: g.Kind()}
	}
	h.states = make([]*aggState, len(h.aggs))
	for i, a := range h.aggs {
		h.states[i] = &aggState{spec: a}
	}
	h.ht = hashtable.New(0)
	h.keyVecs = make([]*vector.Vector, len(h.groupBy))
	h.eqFn = h.eqBatch
	h.allocFn = h.addGroup
	h.numGroups = 0
	h.probeNs = 0
	h.built = false
	h.outPos = 0
	h.fed = false
	return nil
}

// consume drains the child, building groups and accumulators.
func (h *HashAggregate) consume() error {
	if len(h.groupBy) == 0 {
		// Single implicit group: ungrouped aggregation yields one row
		// even over empty input (COUNT 0, the others NULL). Parallel
		// partials do too; the final aggregate skips their NULLs.
		h.numGroups = 1
		for _, st := range h.states {
			st.grow()
		}
	}
	for {
		// Cancellation point inside the build phase: a canceled context
		// stops the aggregation while it is still consuming input, not
		// only once groups start streaming out.
		if err := ctxErr(h.ctx); err != nil {
			return err
		}
		b, err := h.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if b.N == 0 {
			continue
		}
		if err := h.consumeBatch(b); err != nil {
			return err
		}
		h.fed = true
	}
}

func (h *HashAggregate) consumeBatch(b *vector.Batch) error {
	oldGroups := h.numGroups
	capn := b.Capacity()
	if cap(h.hashes) < capn {
		h.hashes = make([]uint64, capn)
		h.groups = make([]uint32, capn)
	}
	hashes := h.hashes[:capn]
	groups := h.groups[:capn]

	if len(h.groupBy) > 0 {
		for i, g := range h.groupBy {
			v, err := g.Eval(b)
			if err != nil {
				return err
			}
			h.keyVecs[i] = v
		}
		// Vectorized hash of the key columns.
		for i, v := range h.keyVecs {
			if i == 0 {
				hashVec(hashes, v, b.Sel, b.N)
			} else {
				rehashVec(hashes, v, b.Sel, b.N)
			}
		}
		// Translate rows to group ids: one batched table lookup per
		// vector, with key verification and new-group allocation
		// running through the callbacks below.
		start := time.Now()
		h.ht.FindOrInsert(hashes, b.Sel, b.N, groups, h.eqFn, h.allocFn)
		h.probeNs += time.Since(start).Nanoseconds()
	} else {
		// Ungrouped: every row belongs to group 0; groups is zeroed.
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				groups[i] = 0
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				groups[i] = 0
			}
		}
	}

	// Fire the aggregate kernels.
	for _, st := range h.states {
		var arg *vector.Vector
		sel, n := b.Sel, b.N
		if st.spec.Arg != nil {
			v, err := st.spec.Arg.Eval(b)
			if err != nil {
				return err
			}
			arg = v
			if arg.Nulls != nil {
				sel, n = h.nonNullRows(arg, b)
			}
		}
		switch st.spec.Fn {
		case AggCount, AggCountStar:
			primitives.AggCount(st.i64, groups, sel, n)
		case AggSum:
			if arg.Kind.StorageClass() == vtypes.ClassF64 {
				primitives.AggSum(st.f64, groups, arg.F64, sel, n)
			} else {
				primitives.AggSum(st.i64, groups, arg.I64, sel, n)
			}
			if arg.Nulls != nil && st.seen == nil {
				// First NULL: groups from earlier batches had only
				// non-NULL inputs, so they have seen one — the implicit
				// group of an ungrouped aggregate only if rows came.
				st.seen = make([]bool, h.numGroups)
				for g := 0; g < oldGroups; g++ {
					st.seen[g] = len(h.groupBy) > 0 || h.fed
				}
			}
			if st.seen != nil {
				markSeen(st.seen, groups, sel, n)
			}
		case AggAvg:
			if arg.Kind.StorageClass() == vtypes.ClassF64 {
				primitives.AggSum(st.f64, groups, arg.F64, sel, n)
			} else {
				// Widen integers through a cast-free running float sum.
				if sel == nil {
					for i := 0; i < n; i++ {
						st.f64[groups[i]] += float64(arg.I64[i])
					}
				} else {
					for _, i := range sel[:n] {
						st.f64[groups[i]] += float64(arg.I64[i])
					}
				}
			}
			primitives.AggCount(st.cnt, groups, sel, n)
		case AggMin:
			switch arg.Kind.StorageClass() {
			case vtypes.ClassF64:
				primitives.AggMin(st.f64, st.seen, groups, arg.F64, sel, n)
			case vtypes.ClassStr:
				primitives.AggMin(st.str, st.seen, groups, arg.Str, sel, n)
			default:
				primitives.AggMin(st.i64, st.seen, groups, arg.I64, sel, n)
			}
		case AggMax:
			switch arg.Kind.StorageClass() {
			case vtypes.ClassF64:
				primitives.AggMax(st.f64, st.seen, groups, arg.F64, sel, n)
			case vtypes.ClassStr:
				primitives.AggMax(st.str, st.seen, groups, arg.Str, sel, n)
			default:
				primitives.AggMax(st.i64, st.seen, groups, arg.I64, sel, n)
			}
		}
	}
	return nil
}

// markSeen flags the groups of the selected rows.
func markSeen(seen []bool, groups []uint32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			seen[groups[i]] = true
		}
		return
	}
	for _, i := range sel[:n] {
		seen[groups[i]] = true
	}
}

// nonNullRows narrows the batch's live rows to those where v is not
// NULL, as a selection vector over the batch's positions.
func (h *HashAggregate) nonNullRows(v *vector.Vector, b *vector.Batch) ([]int32, int) {
	if cap(h.argSel) < b.N {
		h.argSel = make([]int32, b.Capacity())
	}
	sel := h.argSel[:0]
	for i := 0; i < b.N; i++ {
		if ix := b.LiveIndex(i); !v.Nulls[ix] {
			sel = append(sel, int32(ix))
		}
	}
	return sel, len(sel)
}

// eqBatch is the table's key-verification callback: column-major
// comparison of each candidate probe row against its candidate group's
// stored keys (rows already missed by an earlier column are skipped).
func (h *HashAggregate) eqBatch(rows []int32, vals []uint32, miss []bool, n int) {
	for c, kc := range h.keys {
		v := h.keyVecs[c]
		for j := 0; j < n; j++ {
			if !miss[j] && !kc.equalAt(vals[j], v, rows[j]) {
				miss[j] = true
			}
		}
	}
}

// addGroup is the table's new-key callback: it appends the row's keys
// and one accumulator slot per aggregate, returning the new group id.
func (h *HashAggregate) addGroup(i int32) uint32 {
	gid := h.numGroups
	h.numGroups++
	for c, kc := range h.keys {
		kc.appendFrom(h.keyVecs[c], i)
	}
	for _, st := range h.states {
		st.grow()
	}
	return uint32(gid)
}

func hashVec(dst []uint64, v *vector.Vector, sel []int32, n int) {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		primitives.HashI64(dst, v.I64, sel, n)
	case vtypes.ClassF64:
		primitives.HashF64(dst, v.F64, sel, n)
	case vtypes.ClassStr:
		primitives.HashStr(dst, v.Str, sel, n)
	case vtypes.ClassBool:
		primitives.HashBool(dst, v.B, sel, n)
	}
}

func rehashVec(dst []uint64, v *vector.Vector, sel []int32, n int) {
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		primitives.RehashI64(dst, v.I64, sel, n)
	case vtypes.ClassF64:
		primitives.RehashF64(dst, v.F64, sel, n)
	case vtypes.ClassStr:
		primitives.RehashStr(dst, v.Str, sel, n)
	case vtypes.ClassBool:
		primitives.RehashBool(dst, v.B, sel, n)
	}
}

// Next implements Operator: first call drains the child, then groups
// stream out in insertion order.
func (h *HashAggregate) Next() (*vector.Batch, error) {
	if err := ctxErr(h.ctx); err != nil {
		return nil, err
	}
	if !h.built {
		if err := h.consume(); err != nil {
			return nil, err
		}
		h.built = true
	}
	if h.outPos >= h.numGroups {
		return nil, nil
	}
	n := h.numGroups - h.outPos
	if n > h.vecSize {
		n = h.vecSize
	}
	out := vector.NewBatch(h.schema, n)
	for i := 0; i < n; i++ {
		g := h.outPos + i
		for c, kc := range h.keys {
			out.Vecs[c].Set(i, kc.get(g))
		}
		for a, st := range h.states {
			out.Vecs[len(h.keys)+a].Set(i, h.aggValue(st, g))
		}
	}
	h.outPos += n
	out.SetDense(n)
	return out, nil
}

// aggValue materializes one accumulator as a value.
func (h *HashAggregate) aggValue(st *aggState, g int) vtypes.Value {
	switch st.spec.Fn {
	case AggCount, AggCountStar:
		return vtypes.I64Value(st.i64[g])
	case AggAvg:
		if st.cnt[g] == 0 {
			return vtypes.NullValue(vtypes.KindF64)
		}
		return vtypes.F64Value(st.f64[g] / float64(st.cnt[g]))
	case AggSum:
		if st.seen != nil && !st.seen[g] || len(h.groupBy) == 0 && !h.fed {
			return vtypes.NullValue(st.spec.Arg.Kind())
		}
		if st.spec.Arg.Kind().StorageClass() == vtypes.ClassF64 {
			return vtypes.F64Value(st.f64[g])
		}
		return vtypes.I64Value(st.i64[g])
	case AggMin, AggMax:
		if !st.seen[g] {
			return vtypes.NullValue(st.spec.Arg.Kind())
		}
		switch st.spec.Arg.Kind().StorageClass() {
		case vtypes.ClassF64:
			return vtypes.F64Value(st.f64[g])
		case vtypes.ClassStr:
			return vtypes.StrValue(st.str[g])
		default:
			return vtypes.Value{Kind: st.spec.Arg.Kind(), I64: st.i64[g]}
		}
	}
	panic(fmt.Sprintf("core: unknown aggregate %d", st.spec.Fn))
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	if h.sink != nil && h.ht != nil && len(h.groupBy) > 0 {
		h.sink.Record("agg", h.ht.Stats(), h.probeNs)
	}
	h.keys, h.states, h.ht = nil, nil, nil
	return h.child.Close()
}
