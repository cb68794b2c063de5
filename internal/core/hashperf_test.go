package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// batchSource serves preset batches once — the minimal child for
// driving operator internals directly.
type batchSource struct {
	schema  *vtypes.Schema
	batches []*vector.Batch
	pos     int
	// onNext, when non-nil, runs before each Next (cancellation hooks).
	onNext func(call int)
	calls  int
}

func (s *batchSource) Schema() *vtypes.Schema { return s.schema }
func (s *batchSource) Open() error            { s.pos = 0; s.calls = 0; return nil }
func (s *batchSource) Close() error           { return nil }
func (s *batchSource) Next() (*vector.Batch, error) {
	if s.onNext != nil {
		s.onNext(s.calls)
	}
	s.calls++
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// i64Batch builds a dense single-column BIGINT batch from keys.
func i64Batch(keys []int64) *vector.Batch {
	b := vector.NewBatch(i64Schema(), len(keys))
	copy(b.Vecs[0].I64, keys)
	b.SetDense(len(keys))
	return b
}

func repeatKeys(n int, distinct int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) % distinct
	}
	return keys
}

// TestHashAggProbeNoSteadyStateAllocs pins the zero-allocation contract
// on the aggregate probe path: once every group exists and the table is
// at stable size, consuming a batch allocates nothing (keyVecs hoisted,
// table scratch reused, accumulators in place).
func TestHashAggProbeNoSteadyStateAllocs(t *testing.T) {
	b := i64Batch(repeatKeys(1024, 500))
	src := &batchSource{schema: i64Schema()}
	agg := NewHashAggregate(src,
		[]Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggSum, Arg: col(0, vtypes.KindI64)}},
		[]string{"k", "s"})
	if err := agg.Open(); err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if err := agg.consumeBatch(b); err != nil { // creates all 500 groups
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := agg.consumeBatch(b); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("hashagg probe path allocates %.1f/op at stable table size, want 0", got)
	}
}

// TestHashJoinProbeNoSteadyStateAllocs pins the same contract on the
// join probe path: a probe batch that matches nothing exercises hash +
// batched Find + gather with zero allocations (matching rows would
// allocate only the output batch).
func TestHashJoinProbeNoSteadyStateAllocs(t *testing.T) {
	build := i64Batch(repeatKeys(1024, 1024))
	probeKeys := make([]int64, 1024)
	for i := range probeKeys {
		probeKeys[i] = int64(100000 + i) // all misses
	}
	probe := i64Batch(probeKeys)
	j, err := NewHashJoin(
		&batchSource{schema: i64Schema()},
		&batchSource{schema: i64Schema(), batches: []*vector.Batch{build}},
		[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.buildTable(); err != nil {
		t.Fatal(err)
	}
	if out, err := j.probeBatch(probe); err != nil || out != nil {
		t.Fatalf("warmup probe: out=%v err=%v, want no matches", out, err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := j.probeBatch(probe); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("hashjoin probe path allocates %.1f/op at stable table size, want 0", got)
	}
}

// TestJoinCancellationMidBuild: a context canceled while the build side
// is still streaming stops the build loop at the next batch boundary —
// the regression guard for the new batched build loop.
func TestJoinCancellationMidBuild(t *testing.T) {
	var batches []*vector.Batch
	for i := 0; i < 8; i++ {
		batches = append(batches, i64Batch(repeatKeys(256, 256)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	buildSrc := &batchSource{schema: i64Schema(), batches: batches}
	buildSrc.onNext = func(call int) {
		if call == 3 { // cancel mid-build, several batches in
			cancel()
		}
	}
	j, err := NewHashJoin(
		&batchSource{schema: i64Schema()},
		buildSrc,
		[]Expr{col(0, vtypes.KindI64)}, []Expr{col(0, vtypes.KindI64)}, JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	j.SetContext(ctx)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from mid-build cancel, got %v", err)
	}
	if buildSrc.calls >= len(batches) {
		t.Fatalf("build ran to completion (%d calls) despite cancellation", buildSrc.calls)
	}
}

// BenchmarkHashAggProbe measures the steady-state aggregate probe path:
// one 1K batch against a stable 500-group table per iteration.
func BenchmarkHashAggProbe(b *testing.B) {
	batch := i64Batch(repeatKeys(1024, 500))
	src := &batchSource{schema: i64Schema()}
	agg := NewHashAggregate(src,
		[]Expr{col(0, vtypes.KindI64)},
		[]AggSpec{{Fn: AggSum, Arg: col(0, vtypes.KindI64)}},
		[]string{"k", "s"})
	if err := agg.Open(); err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	if err := agg.consumeBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.consumeBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHashAggregateSumNullsAfterValues: a SUM argument whose NULL mask
// first appears after earlier mask-free batches keeps the values those
// batches contributed, in grouped and ungrouped aggregation.
func TestHashAggregateSumNullsAfterValues(t *testing.T) {
	schema := vtypes.NewSchema(vtypes.Column{Name: "g", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true})
	batch := func(g, v []int64, nulls []bool) *vector.Batch {
		b := vector.NewBatch(schema, len(g))
		copy(b.Vecs[0].I64, g)
		copy(b.Vecs[1].I64, v)
		b.Vecs[1].Nulls = nulls
		b.SetDense(len(g))
		return b
	}
	for _, grouped := range []bool{true, false} {
		src := &batchSource{schema: schema, batches: []*vector.Batch{
			batch([]int64{1, 2}, []int64{5, 7}, nil),
			batch([]int64{1, 2, 3}, []int64{0, 0, 0}, []bool{true, true, true}),
		}}
		var groupBy []Expr
		names := []string{"s"}
		if grouped {
			groupBy, names = []Expr{col(0, vtypes.KindI64)}, []string{"g", "s"}
		}
		agg := NewHashAggregate(src, groupBy, []AggSpec{{Fn: AggSum, Arg: col(1, vtypes.KindI64)}}, names)
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		want := "[[12]]"
		if grouped {
			want = "[[1 5] [2 7] [3 NULL]]"
		}
		if got := fmt.Sprint(rows); got != want {
			t.Errorf("grouped=%v: got %s, want %s", grouped, got, want)
		}
	}
}
