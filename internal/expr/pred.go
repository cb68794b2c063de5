package expr

import (
	"fmt"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Pred is a compiled predicate: it consumes the batch's live set and
// narrows it, producing a selection vector — no row is ever copied.
type Pred interface {
	// Filter narrows b's live set in place.
	Filter(b *vector.Batch) error
}

// CmpOp names a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Flip mirrors the operator for swapped operands (c OP col → col flip(OP) c).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return o
	}
}

// cmpConst filters col OP literal through the Sel* kernels.
type cmpConst struct {
	expr Expr
	op   CmpOp
	val  vtypes.Value
}

// NewCmpConst compiles `e OP literal`.
func NewCmpConst(e Expr, op CmpOp, val vtypes.Value) (Pred, error) {
	ek := e.Kind().StorageClass()
	vk := val.Kind.StorageClass()
	if ek != vk {
		// Widen int literal to float or vice versa.
		switch {
		case ek == vtypes.ClassF64 && vk == vtypes.ClassI64:
			val = vtypes.F64Value(float64(val.I64))
		case ek == vtypes.ClassI64 && vk == vtypes.ClassF64:
			return nil, fmt.Errorf("expr: comparing integer column with float literal %v (cast explicitly)", val)
		default:
			return nil, fmt.Errorf("expr: cannot compare %v with %v", e.Kind(), val.Kind)
		}
	}
	if ek == vtypes.ClassBool && op != CmpEq && op != CmpNe {
		return nil, fmt.Errorf("expr: booleans only support =/<>")
	}
	return &cmpConst{expr: e, op: op, val: val}, nil
}

// Filter implements Pred.
func (p *cmpConst) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		k = selCmp(res, v.I64, p.val.I64, p.op, b.Sel, b.N)
	case vtypes.ClassF64:
		k = selCmp(res, v.F64, p.val.F64, p.op, b.Sel, b.N)
	case vtypes.ClassStr:
		k = selCmp(res, v.Str, p.val.Str, p.op, b.Sel, b.N)
	case vtypes.ClassBool:
		want := p.val.B
		if p.op == CmpNe {
			want = !want
		}
		if want {
			k = primitives.SelTrue(res, v.B, b.Sel, b.N)
		} else {
			k = primitives.SelFalse(res, v.B, b.Sel, b.N)
		}
	}
	b.SetSel(res, dropNulls(res, k, v.Nulls))
	return nil
}

// dropNulls removes the rows whose operand is NULL from the k rows a
// kernel selected into res, returning the new count: a comparison with
// NULL is never true, whatever safe value sits under the NULL. A nil
// mask is the NULL-free fast path.
func dropNulls(res []int32, k int, nulls []bool) int {
	if nulls == nil {
		return k
	}
	j := 0
	for _, i := range res[:k] {
		if !nulls[i] {
			res[j] = i
			j++
		}
	}
	return j
}

func selCmp[T primitives.Ordered](res []int32, a []T, c T, op CmpOp, sel []int32, n int) int {
	switch op {
	case CmpEq:
		return primitives.SelEqVC(res, a, c, sel, n)
	case CmpNe:
		return primitives.SelNeVC(res, a, c, sel, n)
	case CmpLt:
		return primitives.SelLtVC(res, a, c, sel, n)
	case CmpLe:
		return primitives.SelLeVC(res, a, c, sel, n)
	case CmpGt:
		return primitives.SelGtVC(res, a, c, sel, n)
	default:
		return primitives.SelGeVC(res, a, c, sel, n)
	}
}

// cmpCols filters colA OP colB.
type cmpCols struct {
	left, right Expr
	op          CmpOp
}

// NewCmpCols compiles `a OP b` for two expressions of one storage class.
func NewCmpCols(a Expr, op CmpOp, b Expr) (Pred, error) {
	if a.Kind().StorageClass() != b.Kind().StorageClass() {
		if a.Kind().Numeric() && b.Kind().Numeric() {
			a = NewCast(a, vtypes.KindF64)
			b = NewCast(b, vtypes.KindF64)
		} else {
			return nil, fmt.Errorf("expr: cannot compare %v with %v", a.Kind(), b.Kind())
		}
	}
	if a.Kind().StorageClass() == vtypes.ClassBool && op != CmpEq && op != CmpNe {
		return nil, fmt.Errorf("expr: booleans only support =/<>")
	}
	return &cmpCols{left: a, right: b, op: op}, nil
}

// Filter implements Pred.
func (p *cmpCols) Filter(b *vector.Batch) error {
	lv, err := p.left.Eval(b)
	if err != nil {
		return err
	}
	rv, err := p.right.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch lv.Kind.StorageClass() {
	case vtypes.ClassI64:
		k = selCmpVV(res, lv.I64, rv.I64, p.op, b.Sel, b.N)
	case vtypes.ClassF64:
		k = selCmpVV(res, lv.F64, rv.F64, p.op, b.Sel, b.N)
	case vtypes.ClassStr:
		k = selCmpVV(res, lv.Str, rv.Str, p.op, b.Sel, b.N)
	case vtypes.ClassBool:
		if p.op == CmpEq {
			k = primitives.SelEqVV(res, lv.B, rv.B, b.Sel, b.N)
		} else {
			k = primitives.SelNeVV(res, lv.B, rv.B, b.Sel, b.N)
		}
	}
	b.SetSel(res, dropNulls(res, dropNulls(res, k, lv.Nulls), rv.Nulls))
	return nil
}

func selCmpVV[T primitives.Ordered](res []int32, a, b []T, op CmpOp, sel []int32, n int) int {
	switch op {
	case CmpEq:
		return primitives.SelEqVV(res, a, b, sel, n)
	case CmpNe:
		return primitives.SelNeVV(res, a, b, sel, n)
	case CmpLt:
		return primitives.SelLtVV(res, a, b, sel, n)
	case CmpLe:
		return primitives.SelLeVV(res, a, b, sel, n)
	case CmpGt:
		return primitives.SelGtVV(res, a, b, sel, n)
	default:
		return primitives.SelGeVV(res, a, b, sel, n)
	}
}

// between filters lo <= e <= hi with the fused kernel.
type between struct {
	expr   Expr
	lo, hi vtypes.Value
}

// NewBetween compiles `e BETWEEN lo AND hi`.
func NewBetween(e Expr, lo, hi vtypes.Value) (Pred, error) {
	if e.Kind().StorageClass() != lo.Kind.StorageClass() || lo.Kind.StorageClass() != hi.Kind.StorageClass() {
		return nil, fmt.Errorf("expr: BETWEEN type mismatch (%v, %v, %v)", e.Kind(), lo.Kind, hi.Kind)
	}
	return &between{expr: e, lo: lo, hi: hi}, nil
}

// Filter implements Pred.
func (p *between) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		k = primitives.SelBetweenVC(res, v.I64, p.lo.I64, p.hi.I64, b.Sel, b.N)
	case vtypes.ClassF64:
		k = primitives.SelBetweenVC(res, v.F64, p.lo.F64, p.hi.F64, b.Sel, b.N)
	case vtypes.ClassStr:
		k = primitives.SelBetweenVC(res, v.Str, p.lo.Str, p.hi.Str, b.Sel, b.N)
	default:
		return fmt.Errorf("expr: BETWEEN unsupported for %v", v.Kind)
	}
	b.SetSel(res, dropNulls(res, k, v.Nulls))
	return nil
}

// like filters string LIKE pattern.
type like struct {
	expr    Expr
	pattern string
	negate  bool
}

// NewLike compiles `e [NOT] LIKE pattern`.
func NewLike(e Expr, pattern string, negate bool) (Pred, error) {
	if e.Kind().StorageClass() != vtypes.ClassStr {
		return nil, fmt.Errorf("expr: LIKE requires a string, got %v", e.Kind())
	}
	return &like{expr: e, pattern: pattern, negate: negate}, nil
}

// Filter implements Pred.
func (p *like) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	if p.negate {
		k = primitives.SelNotLike(res, v.Str, p.pattern, b.Sel, b.N)
	} else {
		k = primitives.SelLike(res, v.Str, p.pattern, b.Sel, b.N)
	}
	b.SetSel(res, dropNulls(res, k, v.Nulls))
	return nil
}

// inSet filters e IN (list).
type inSet struct {
	expr Expr
	strs []string
	i64s []int64
}

// NewInSet compiles `e IN (consts...)`.
func NewInSet(e Expr, vals []vtypes.Value) (Pred, error) {
	p := &inSet{expr: e}
	switch e.Kind().StorageClass() {
	case vtypes.ClassStr:
		for _, v := range vals {
			p.strs = append(p.strs, v.Str)
		}
	case vtypes.ClassI64:
		for _, v := range vals {
			p.i64s = append(p.i64s, v.I64)
		}
	default:
		return nil, fmt.Errorf("expr: IN unsupported for %v", e.Kind())
	}
	return p, nil
}

// Filter implements Pred.
func (p *inSet) Filter(b *vector.Batch) error {
	v, err := p.expr.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	var k int
	if p.strs != nil {
		k = primitives.SelInSet(res, v.Str, p.strs, b.Sel, b.N)
	} else {
		k = primitives.SelInSet(res, v.I64, p.i64s, b.Sel, b.N)
	}
	b.SetSel(res, dropNulls(res, k, v.Nulls))
	return nil
}

// andPred chains conjuncts: each narrows the live set further, so later
// conjuncts run on ever-smaller selections (X100 conjunct chaining).
type andPred struct{ preds []Pred }

// NewAnd compiles a conjunction.
func NewAnd(preds ...Pred) Pred { return &andPred{preds: preds} }

// Filter implements Pred.
func (p *andPred) Filter(b *vector.Batch) error {
	for _, q := range p.preds {
		if err := q.Filter(b); err != nil {
			return err
		}
		if b.N == 0 {
			return nil
		}
	}
	return nil
}

// orPred evaluates each disjunct over the *original* live set and takes
// the union, preserving ascending order.
type orPred struct{ preds []Pred }

// NewOr compiles a disjunction.
func NewOr(preds ...Pred) Pred { return &orPred{preds: preds} }

// Filter implements Pred.
func (p *orPred) Filter(b *vector.Batch) error {
	origSel := b.Sel
	origN := b.N
	keep := make(map[int32]struct{})
	for _, q := range p.preds {
		// Restore the original live set for each disjunct.
		if origSel == nil {
			b.SetDense(origN)
		} else {
			b.Sel = origSel
			b.N = origN
		}
		if err := q.Filter(b); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			keep[int32(b.LiveIndex(i))] = struct{}{}
		}
	}
	res := make([]int32, 0, len(keep))
	if origSel == nil {
		for i := 0; i < origN; i++ {
			if _, ok := keep[int32(i)]; ok {
				res = append(res, int32(i))
			}
		}
	} else {
		for _, i := range origSel[:origN] {
			if _, ok := keep[i]; ok {
				res = append(res, i)
			}
		}
	}
	b.Sel = res
	b.N = len(res)
	return nil
}

// notPred selects the complement of its inner predicate within the
// current live set.
type notPred struct{ inner Pred }

// NewNot compiles a negation.
func NewNot(p Pred) Pred { return &notPred{inner: p} }

// Filter implements Pred.
func (p *notPred) Filter(b *vector.Batch) error {
	origSel := b.Sel
	origN := b.N
	if err := p.inner.Filter(b); err != nil {
		return err
	}
	matched := make(map[int32]struct{}, b.N)
	for i := 0; i < b.N; i++ {
		matched[int32(b.LiveIndex(i))] = struct{}{}
	}
	var res []int32
	if origSel == nil {
		for i := 0; i < origN; i++ {
			if _, ok := matched[int32(i)]; !ok {
				res = append(res, int32(i))
			}
		}
	} else {
		for _, i := range origSel[:origN] {
			if _, ok := matched[i]; !ok {
				res = append(res, i)
			}
		}
	}
	b.Sel = res
	b.N = len(res)
	return nil
}

// boolExprPred adapts a boolean-valued Expr (e.g. a Case) to Pred.
type boolExprPred struct{ e Expr }

// NewBoolPred adapts a boolean expression to a predicate.
func NewBoolPred(e Expr) (Pred, error) {
	if e.Kind() != vtypes.KindBool {
		return nil, fmt.Errorf("expr: predicate expression must be boolean, got %v", e.Kind())
	}
	return &boolExprPred{e: e}, nil
}

// Filter implements Pred.
func (p *boolExprPred) Filter(b *vector.Batch) error {
	v, err := p.e.Eval(b)
	if err != nil {
		return err
	}
	res := b.MutableSel(b.Capacity())
	k := primitives.SelTrue(res, v.B, b.Sel, b.N)
	b.SetSel(res, k)
	return nil
}

// CmpMap is a boolean-producing comparison Expr (used inside CASE).
type CmpMap struct {
	left, right Expr
	op          CmpOp
	buf         *vector.Vector
}

// NewCmpMap compiles `a OP b` as a boolean map expression.
func NewCmpMap(a Expr, op CmpOp, b Expr) (*CmpMap, error) {
	if a.Kind().StorageClass() != b.Kind().StorageClass() {
		if a.Kind().Numeric() && b.Kind().Numeric() {
			a = NewCast(a, vtypes.KindF64)
			b = NewCast(b, vtypes.KindF64)
		} else {
			return nil, fmt.Errorf("expr: cannot compare %v with %v", a.Kind(), b.Kind())
		}
	}
	return &CmpMap{left: a, right: b, op: op}, nil
}

// Kind implements Expr.
func (c *CmpMap) Kind() vtypes.Kind { return vtypes.KindBool }

// Eval implements Expr.
func (c *CmpMap) Eval(b *vector.Batch) (*vector.Vector, error) {
	lv, err := c.left.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := c.right.Eval(b)
	if err != nil {
		return nil, err
	}
	if c.buf == nil || c.buf.Len() < b.Capacity() {
		c.buf = vector.New(vtypes.KindBool, b.Capacity())
	}
	n := b.N
	if n == 0 {
		return c.buf, nil
	}
	switch lv.Kind.StorageClass() {
	case vtypes.ClassI64:
		mapCmpVV(c.buf.B, lv.I64, rv.I64, c.op, b.Sel, n)
	case vtypes.ClassF64:
		mapCmpVV(c.buf.B, lv.F64, rv.F64, c.op, b.Sel, n)
	case vtypes.ClassStr:
		mapCmpVV(c.buf.B, lv.Str, rv.Str, c.op, b.Sel, n)
	case vtypes.ClassBool:
		if c.op == CmpEq {
			primitives.MapEqVV(c.buf.B, lv.B, rv.B, b.Sel, n)
		} else {
			primitives.MapNeVV(c.buf.B, lv.B, rv.B, b.Sel, n)
		}
	}
	return c.buf, nil
}

func mapCmpVV[T primitives.Ordered](dst []bool, a, b []T, op CmpOp, sel []int32, n int) {
	switch op {
	case CmpEq:
		primitives.MapEqVV(dst, a, b, sel, n)
	case CmpNe:
		primitives.MapNeVV(dst, a, b, sel, n)
	case CmpLt:
		primitives.MapLtVV(dst, a, b, sel, n)
	case CmpLe:
		primitives.MapLeVV(dst, a, b, sel, n)
	case CmpGt:
		primitives.MapLtVV(dst, b, a, sel, n)
	default:
		primitives.MapLeVV(dst, b, a, sel, n)
	}
}

// LikeMap is a boolean-producing LIKE Expr (used inside CASE, e.g. the
// promo share of TPC-H Q14).
type LikeMap struct {
	in      Expr
	pattern string
	buf     *vector.Vector
}

// NewLikeMap compiles `e LIKE pattern` as a boolean map.
func NewLikeMap(in Expr, pattern string) (*LikeMap, error) {
	if in.Kind().StorageClass() != vtypes.ClassStr {
		return nil, fmt.Errorf("expr: LIKE requires a string, got %v", in.Kind())
	}
	return &LikeMap{in: in, pattern: pattern}, nil
}

// Kind implements Expr.
func (l *LikeMap) Kind() vtypes.Kind { return vtypes.KindBool }

// Eval implements Expr.
func (l *LikeMap) Eval(b *vector.Batch) (*vector.Vector, error) {
	v, err := l.in.Eval(b)
	if err != nil {
		return nil, err
	}
	if l.buf == nil || l.buf.Len() < b.Capacity() {
		l.buf = vector.New(vtypes.KindBool, b.Capacity())
	}
	if b.N > 0 {
		primitives.MapLike(l.buf.B, v.Str, l.pattern, b.Sel, b.N)
	}
	return l.buf, nil
}
