// Package expr implements vectorized expression evaluation for the X100
// engine. An expression tree is *compiled* once into a tree of closures
// over monomorphic primitive kernels; evaluation then runs one kernel
// call per vector, never one interface dispatch per row — the crux of
// the paper's ">10× over tuple-at-a-time" claim.
//
// Kernels compute over the safe value stored under a NULL; arithmetic
// and casts carry their inputs' NULL masks to the result, so a NULL
// operand (such as an aggregate over no rows) yields NULL.
package expr

import (
	"fmt"

	"vectorwise/internal/primitives"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Expr is a compiled vectorized expression.
type Expr interface {
	// Kind is the result type.
	Kind() vtypes.Kind
	// Eval computes the expression over the batch's live rows. Results
	// are written at live positions (the output aligns with b.Sel).
	Eval(b *vector.Batch) (*vector.Vector, error)
}

// Col references an input column by position.
type Col struct {
	Idx     int
	ColKind vtypes.Kind
}

// NewCol builds a column reference.
func NewCol(idx int, kind vtypes.Kind) *Col { return &Col{Idx: idx, ColKind: kind} }

// Kind implements Expr.
func (c *Col) Kind() vtypes.Kind { return c.ColKind }

// Eval implements Expr: a column reference is free (no copy).
func (c *Col) Eval(b *vector.Batch) (*vector.Vector, error) {
	if c.Idx < 0 || c.Idx >= len(b.Vecs) {
		return nil, fmt.Errorf("expr: column %d out of range (%d cols)", c.Idx, len(b.Vecs))
	}
	return b.Vecs[c.Idx], nil
}

// Const is a literal broadcast over the batch.
type Const struct {
	Val vtypes.Value
	buf *vector.Vector
}

// NewConst builds a literal.
func NewConst(v vtypes.Value) *Const { return &Const{Val: v} }

// Kind implements Expr.
func (c *Const) Kind() vtypes.Kind { return c.Val.Kind }

// Eval implements Expr.
func (c *Const) Eval(b *vector.Batch) (*vector.Vector, error) {
	n := b.Capacity()
	if c.buf == nil || c.buf.Len() < n {
		c.buf = vector.New(c.Val.Kind, n)
		for i := 0; i < n; i++ {
			c.buf.Set(i, c.Val)
		}
	}
	return c.buf, nil
}

// ArithOp names a binary arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o ArithOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpMod:
		return "%"
	default:
		return "/"
	}
}

// Arith is a compiled binary arithmetic expression.
type Arith struct {
	op          ArithOp
	left, right Expr
	kind        vtypes.Kind
	buf         *vector.Vector
	nulls       []bool // union of two operand masks (reused)
	fn          func(dst, a, b *vector.Vector, sel []int32, n int)
}

// NewArith compiles left op right. Mixed int/float operands widen to
// float via an implicit cast.
func NewArith(op ArithOp, left, right Expr) (*Arith, error) {
	lk, rk := left.Kind(), right.Kind()
	// Date ± int stays a date; date - date is an int (day difference).
	kind := lk
	switch {
	case lk == vtypes.KindDate && rk == vtypes.KindDate && op == OpSub:
		kind = vtypes.KindI64
	case lk == vtypes.KindDate && rk.StorageClass() == vtypes.ClassI64:
		kind = vtypes.KindDate
	case lk == vtypes.KindF64 || rk == vtypes.KindF64:
		kind = vtypes.KindF64
		if lk.StorageClass() == vtypes.ClassI64 {
			left = NewCast(left, vtypes.KindF64)
		}
		if rk.StorageClass() == vtypes.ClassI64 {
			right = NewCast(right, vtypes.KindF64)
		}
	case lk.StorageClass() == vtypes.ClassI64 && rk.StorageClass() == vtypes.ClassI64:
		if lk == vtypes.KindDate {
			kind = vtypes.KindDate
		} else {
			kind = vtypes.KindI64
		}
	default:
		return nil, fmt.Errorf("expr: cannot apply %v to %v and %v", op, lk, rk)
	}

	a := &Arith{op: op, left: left, right: right, kind: kind}
	switch kind.StorageClass() {
	case vtypes.ClassI64:
		switch op {
		case OpAdd:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapAddVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case OpSub:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapSubVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case OpMul:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapMulVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case OpDiv:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapDivVV(dst.I64, x.I64, y.I64, sel, n)
			}
		case OpMod:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapModVV(dst.I64, x.I64, y.I64, sel, n)
			}
		}
	case vtypes.ClassF64:
		switch op {
		case OpAdd:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapAddVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case OpSub:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapSubVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case OpMul:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapMulVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case OpDiv:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapDivVV(dst.F64, x.F64, y.F64, sel, n)
			}
		case OpMod:
			a.fn = func(dst, x, y *vector.Vector, sel []int32, n int) {
				primitives.MapFModVV(dst.F64, x.F64, y.F64, sel, n)
			}
		}
	default:
		return nil, fmt.Errorf("expr: arithmetic on %v unsupported", kind)
	}
	return a, nil
}

// Kind implements Expr.
func (a *Arith) Kind() vtypes.Kind { return a.kind }

// Eval implements Expr.
func (a *Arith) Eval(b *vector.Batch) (*vector.Vector, error) {
	lv, err := a.left.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := a.right.Eval(b)
	if err != nil {
		return nil, err
	}
	if a.buf == nil || a.buf.Len() < b.Capacity() {
		a.buf = vector.New(a.kind, b.Capacity())
	}
	n := b.N
	if b.Sel == nil {
		if n == 0 {
			return a.buf, nil
		}
		a.fn(a.buf, lv, rv, nil, n)
	} else {
		a.fn(a.buf, lv, rv, b.Sel, n)
	}
	a.buf.Nulls = unionNulls(&a.nulls, lv.Nulls, rv.Nulls, b)
	return a.buf, nil
}

// unionNulls returns the NULL mask of a binary result: nil when neither
// operand has one (the NULL-free fast path), the one operand's mask when
// only it does, else the union over the batch's live rows, built in buf.
func unionNulls(buf *[]bool, l, r []bool, b *vector.Batch) []bool {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	}
	if len(*buf) < len(l) {
		*buf = make([]bool, len(l))
	}
	out := (*buf)[:len(l)]
	for i := 0; i < b.N; i++ {
		ix := b.LiveIndex(i)
		out[ix] = l[ix] || r[ix]
	}
	return out
}

// Cast converts between the numeric storage classes.
type Cast struct {
	in   Expr
	kind vtypes.Kind
	buf  *vector.Vector
}

// NewCast compiles a cast of in to kind (numeric classes only; casting
// to the same class relabels the kind, e.g. DATE → BIGINT).
func NewCast(in Expr, kind vtypes.Kind) *Cast { return &Cast{in: in, kind: kind} }

// Kind implements Expr.
func (c *Cast) Kind() vtypes.Kind { return c.kind }

// Eval implements Expr.
func (c *Cast) Eval(b *vector.Batch) (*vector.Vector, error) {
	v, err := c.in.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind.StorageClass() == c.kind.StorageClass() {
		if v.Kind == c.kind {
			return v, nil
		}
		out := *v
		out.Kind = c.kind
		return &out, nil
	}
	if c.buf == nil || c.buf.Len() < b.Capacity() {
		c.buf = vector.New(c.kind, b.Capacity())
	}
	n := b.N
	if n == 0 {
		return c.buf, nil
	}
	switch {
	case c.kind.StorageClass() == vtypes.ClassF64 && v.Kind.StorageClass() == vtypes.ClassI64:
		primitives.MapI64ToF64(c.buf.F64, v.I64, b.Sel, n)
	case c.kind.StorageClass() == vtypes.ClassI64 && v.Kind.StorageClass() == vtypes.ClassF64:
		primitives.MapF64ToI64(c.buf.I64, v.F64, b.Sel, n)
	default:
		return nil, fmt.Errorf("expr: unsupported cast %v → %v", v.Kind, c.kind)
	}
	c.buf.Nulls = v.Nulls
	return c.buf, nil
}

// YearOf extracts the calendar year from a date column.
type YearOf struct {
	in  Expr
	buf *vector.Vector
}

// NewYearOf compiles EXTRACT(YEAR FROM in).
func NewYearOf(in Expr) *YearOf { return &YearOf{in: in} }

// Kind implements Expr.
func (y *YearOf) Kind() vtypes.Kind { return vtypes.KindI64 }

// Eval implements Expr.
func (y *YearOf) Eval(b *vector.Batch) (*vector.Vector, error) {
	v, err := y.in.Eval(b)
	if err != nil {
		return nil, err
	}
	if y.buf == nil || y.buf.Len() < b.Capacity() {
		y.buf = vector.New(vtypes.KindI64, b.Capacity())
	}
	n := b.N
	if b.Sel == nil {
		for i := 0; i < n; i++ {
			y.buf.I64[i] = vtypes.Year(v.I64[i])
		}
	} else {
		for _, i := range b.Sel[:n] {
			y.buf.I64[i] = vtypes.Year(v.I64[i])
		}
	}
	return y.buf, nil
}

// Case is a two-armed CASE WHEN cond THEN a ELSE b END. The condition is
// a compiled boolean Expr; both arms evaluate over the full live set and
// blend — branch-free, as X100 compiles conditionals.
type Case struct {
	cond     Expr
	then, el Expr
	kind     vtypes.Kind
	buf      *vector.Vector
}

// NewCase compiles the conditional; then/else kinds must share a storage
// class (mixed int/float widen to float).
func NewCase(cond, then, el Expr) (*Case, error) {
	if cond.Kind() != vtypes.KindBool {
		return nil, fmt.Errorf("expr: CASE condition must be boolean, got %v", cond.Kind())
	}
	tk, ek := then.Kind(), el.Kind()
	kind := tk
	if tk != ek {
		if tk.Numeric() && ek.Numeric() {
			kind = vtypes.KindF64
			if tk.StorageClass() == vtypes.ClassI64 {
				then = NewCast(then, vtypes.KindF64)
			}
			if ek.StorageClass() == vtypes.ClassI64 {
				el = NewCast(el, vtypes.KindF64)
			}
		} else {
			return nil, fmt.Errorf("expr: CASE arms disagree: %v vs %v", tk, ek)
		}
	}
	return &Case{cond: cond, then: then, el: el, kind: kind}, nil
}

// Kind implements Expr.
func (c *Case) Kind() vtypes.Kind { return c.kind }

// Eval implements Expr.
func (c *Case) Eval(b *vector.Batch) (*vector.Vector, error) {
	cv, err := c.cond.Eval(b)
	if err != nil {
		return nil, err
	}
	tv, err := c.then.Eval(b)
	if err != nil {
		return nil, err
	}
	ev, err := c.el.Eval(b)
	if err != nil {
		return nil, err
	}
	if c.buf == nil || c.buf.Len() < b.Capacity() {
		c.buf = vector.New(c.kind, b.Capacity())
	}
	blend := func(i int32) {
		if cv.B[i] {
			c.buf.CopyFrom(tv, int(i), int(i), 1)
		} else {
			c.buf.CopyFrom(ev, int(i), int(i), 1)
		}
	}
	// Blend per storage class without boxing.
	switch c.kind.StorageClass() {
	case vtypes.ClassI64:
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				if cv.B[i] {
					c.buf.I64[i] = tv.I64[i]
				} else {
					c.buf.I64[i] = ev.I64[i]
				}
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				if cv.B[i] {
					c.buf.I64[i] = tv.I64[i]
				} else {
					c.buf.I64[i] = ev.I64[i]
				}
			}
		}
	case vtypes.ClassF64:
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				if cv.B[i] {
					c.buf.F64[i] = tv.F64[i]
				} else {
					c.buf.F64[i] = ev.F64[i]
				}
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				if cv.B[i] {
					c.buf.F64[i] = tv.F64[i]
				} else {
					c.buf.F64[i] = ev.F64[i]
				}
			}
		}
	default:
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				blend(int32(i))
			}
		} else {
			for _, i := range b.Sel[:b.N] {
				blend(i)
			}
		}
	}
	return c.buf, nil
}
