package main

import (
	"context"
	"fmt"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/algebra"
	"vectorwise/internal/plancache"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// stmtTiming splits one SELECT's client-side time: open is until the
// cursor is returned (front end, compile, operator Open), drain the
// Rows.NextBatch calls (execution), convert the per-batch conversion of
// results into the client's form (boxing, or JSON encoding).
type stmtTiming struct {
	open, drain, convert time.Duration
}

func (t stmtTiming) total() time.Duration { return t.open + t.drain + t.convert }

// runSelect runs one SELECT through DB.QueryContext and Rows.NextBatch,
// handing every batch to convert. With a tracer it records db.open and
// db.drain under parent, and a convertSpan span per batch under db.drain.
func runSelect(db *vectorwise.DB, text string, args []any, convert func(*vector.Batch), convertSpan string,
	tr *tracer, parent int, req int64) (stmtTiming, error) {
	var t stmtTiming
	t0 := time.Now()
	rows, err := db.QueryContext(context.Background(), text, args...)
	t1 := time.Now()
	t.open = t1.Sub(t0)
	tr.add("db.open", parent, req, t0, t1)
	if err != nil {
		return t, err
	}
	defer rows.Close()
	drain := tr.begin("db.drain", parent, req)
	defer tr.end(drain)
	for {
		b, err := rows.NextBatch()
		if err != nil {
			return t, err
		}
		if b == nil {
			break
		}
		c0 := time.Now()
		convert(b)
		c1 := time.Now()
		t.convert += c1.Sub(c0)
		tr.add(convertSpan, drain, req, c0, c1)
	}
	t.drain = time.Since(t1) - t.convert
	return t, nil
}

// boxInto returns a batch converter appending boxed rows to *dst.
func boxInto(dst *[]vtypes.Row) func(*vector.Batch) {
	return func(b *vector.Batch) {
		for i := 0; i < b.N; i++ {
			*dst = append(*dst, b.Row(i))
		}
	}
}

// replayFrontend passes a statement text through the front-end layers
// called directly — parse, plan, rewrite, bind + compile — as a
// frontend.replay span with one child per layer. It repeats work the DB
// did (or skipped on a plan-cache hit) and is never part of a timed op.
func replayFrontend(db *vectorwise.DB, text string, args []any, tr *tracer, req int64) error {
	root := tr.begin("frontend.replay", -1, req)
	defer tr.end(root)
	id := tr.begin("sql.parse", root, req)
	st, err := sql.Parse(plancache.Normalize(text))
	tr.end(id)
	if err != nil {
		return err
	}
	defer st.Release()
	id = tr.begin("sql.plan", root, req)
	planner := &sql.Planner{Cat: db.Catalog()}
	plan, err := planner.PlanQuery(st.AST)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("rewriter", root, req)
	plan = rewriter.SimplifyPlan(plan)
	if db.Parallelism > 1 {
		plan = rewriter.Parallelize(plan, db.Catalog(), db.Parallelism)
	}
	tr.end(id)
	id = tr.begin("xcompile", root, req)
	defer tr.end(id)
	if len(args) > 0 {
		if plan, err = algebra.BindParams(plan, boxArgs(args)); err != nil {
			return err
		}
	}
	// The operator tree is compiled but never opened, so it holds no
	// resources to release.
	_, err = xcompile.Compile(plan, db.Catalog(), xcompile.Options{Fetch: db.BufferManager()})
	return err
}

// boxArgs converts the benchmark's statement arguments (all int64) to
// engine values.
func boxArgs(args []any) []vtypes.Value {
	out := make([]vtypes.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			out[i] = vtypes.I64Value(v)
		default:
			panic(fmt.Sprintf("perfbench: unsupported argument %T", a))
		}
	}
	return out
}
