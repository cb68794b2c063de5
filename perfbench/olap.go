package main

import (
	"fmt"
	"runtime"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/tpch"
	"vectorwise/internal/tpchdb"
	"vectorwise/internal/vtypes"
)

// olapSF is the TPC-H scale factor of tpch-olap and selective-http.
const olapSF = 0.1

// olapOrderCols lists, per suite query, the output columns its ORDER BY
// sorts on (see tpch.SQLSuite); queries without ORDER BY return one row.
var olapOrderCols = map[string][]int{
	"Q1": {0, 1}, "Q2": {0, 2, 1, 3}, "Q3": {3, 1}, "Q4": {0}, "Q5": {1},
	"Q10": {6, 0}, "Q11": {1, 0}, "Q12": {0}, "Q18": {4, 2},
}

// olapMaxPasses bounds the generated pass orders; a run stops at its
// deadline long before.
const olapMaxPasses = 256

// loadTPCH builds setupRepeats in-memory SF 0.1 databases through the
// public ingest path, keeping the last, and returns it with the median
// build time in seconds.
func loadTPCH() (*vectorwise.DB, float64, error) {
	var db *vectorwise.DB
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		d := vectorwise.OpenMemory()
		if _, err := tpchdb.Load(d, olapSF); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		db = d
	}
	return db, median(secs), nil
}

// tupleReferences computes every suite query's answer with the
// tuple-at-a-time engine on the hand-built plans, over a separately
// generated copy of the data.
func tupleReferences() (map[string][]vtypes.Row, error) {
	cat, err := tpch.Generate(olapSF, 0)
	if err != nil {
		return nil, err
	}
	refs := map[string][]vtypes.Row{}
	for _, q := range tpch.Suite() {
		rows, _, err := tpch.RunQuery(cat, q, tpch.RunOptions{Engine: tpch.EngineTuple})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		refs[q.Name] = rows
	}
	return refs, nil
}

// olapRun is tpch-olap's closed-loop client.
type olapRun struct {
	db    *vectorwise.DB
	suite []tpch.SQLQuery
	refs  map[string][]vtypes.Row
	out   *outcome
}

// olapPhase collects one measured phase's timings.
type olapPhase struct {
	passes  []float64            // wall seconds per pass
	perQ    map[string][]float64 // ms per execution, by query
	all     []float64            // ms per execution
	open    []float64            // ms
	drain   map[string][]float64 // ms, by query
	queries int
}

// pass runs the suite once in the given order and checks every answer
// after the pass span closes. ph may be nil (warm-up).
func (r *olapRun) pass(order []int, n int64, tr *tracer, ph *olapPhase) {
	results := make([][]vtypes.Row, len(order))
	errs := make([]error, len(order))
	p0 := time.Now()
	pid := tr.begin("pass", -1, n)
	for j, i := range order {
		q := r.suite[i]
		req := tr.begin("req", pid, n)
		t, err := runSelect(r.db, q.SQL, nil, boxInto(&results[j]), "db.box", tr, req, n)
		tr.end(req)
		errs[j] = err
		if ph != nil && err == nil {
			d := ms(t.total())
			ph.perQ[q.Name] = append(ph.perQ[q.Name], d)
			ph.all = append(ph.all, d)
			ph.open = append(ph.open, ms(t.open))
			ph.drain[q.Name] = append(ph.drain[q.Name], ms(t.drain))
			ph.queries++
		}
	}
	tr.end(pid)
	if ph != nil {
		ph.passes = append(ph.passes, time.Since(p0).Seconds())
	}
	for j, i := range order {
		q := r.suite[i]
		err, wrong := errs[j], false
		if err == nil {
			if cerr := compareRows(r.refs[q.Name], results[j], olapOrderCols[q.Name]); cerr != nil {
				err, wrong = fmt.Errorf("%s: %w", q.Name, cerr), true
			}
		}
		r.out.ops.record(err, wrong)
	}
}

func runOLAP(cfg config, out *outcome) error {
	db, setupS, err := loadTPCH()
	if err != nil {
		return err
	}
	out.setupS = setupS
	refs, err := tupleReferences()
	if err != nil {
		return err
	}
	r := &olapRun{db: db, suite: tpch.SQLSuite(), refs: refs, out: out}

	rng := newRNG(cfg.seed, 1)
	orders := make([][]int, olapMaxPasses)
	dg := newDigest()
	for p := range orders {
		orders[p] = rng.Perm(len(r.suite))
		for _, i := range orders[p] {
			dg.add(r.suite[i].Name)
		}
	}
	fmt.Printf("# op stream digest %016x (%d generated pass orders)\n", dg.sum(), olapMaxPasses)

	runtime.GC()
	w0 := time.Now()
	r.pass(orders[0], 0, nil, nil)
	warmup := time.Since(w0).Seconds()
	fmt.Printf("# warmup_s %.4f\n", warmup)

	next := 1
	measure := func(d time.Duration, tr *tracer) phase {
		ph := &olapPhase{perQ: map[string][]float64{}, drain: map[string][]float64{}}
		c0 := readCounters(db)
		m0 := readMem()
		heap := startHeapSampler(5 * time.Millisecond)
		deadline := time.Now().Add(d)
		for len(ph.passes) < 2 || time.Now().Before(deadline) {
			r.pass(orders[next%len(orders)], int64(next), tr, ph)
			if tr != nil {
				for _, q := range r.suite {
					if err := replayFrontend(db, q.SQL, nil, tr, int64(next)); err != nil {
						out.ops.record(fmt.Errorf("replay %s: %w", q.Name, err), false)
					}
				}
			}
			next++
		}
		peak := heap.finish()
		mem := memSince(m0)
		suiteS := median(append([]float64(nil), ph.passes...))
		var perQMedian []float64
		for _, q := range r.suite {
			perQMedian = append(perQMedian, median(ph.perQ[q.Name]))
		}
		geo := geomean(perQMedian)
		fmt.Printf("# phase: passes=%d suite_s=%.4f query_geomean_ms=%.4f pass_s=%.3f\n", len(ph.passes), suiteS, geo, ph.passes)
		p := phase{e2e: map[string]float64{
			"peak_heap_mb":     peak,
			"throughput_per_s": float64(len(r.suite)) / suiteS,
			"p50_ms":           geo,
			"p99_ms":           windowQuantile(ph.all, 0.99, 5),
			"read_p50_ms":      median(append([]float64(nil), ph.all...)),
		}}
		l := map[string]float64{"warmup_s": warmup}
		p.layers = l
		c0.addDeltas(readCounters(db), l)
		l["exec.alloc_kb_per_op"] = mem.allocMB * 1024 / float64(ph.queries)
		l["gc.pause_us_per_op"] = mem.gcPauseMs * 1000 / float64(ph.queries)
		l["exec.alloc_mb_per_pass"] = mem.allocMB / float64(len(ph.passes))
		l["gc.pause_ms_per_pass"] = mem.gcPauseMs / float64(len(ph.passes))
		if tr == nil {
			return p
		}
		for _, q := range r.suite {
			l["exec.drain_ms."+q.Name] = median(ph.drain[q.Name])
		}
		var drains []float64
		for _, ds := range ph.drain {
			drains = append(drains, ds...)
		}
		l["frontend.open_ms"] = median(ph.open)
		l["exec.drain_ms"] = median(drains)
		addSpanLayers(tr, l)
		return p
	}
	if !cfg.trace {
		out.untraced = measure(cfg.measure, nil)
		return nil
	}
	out.untraced = measure(cfg.measure/2, nil)
	tp := measure(cfg.measure/2, out.tracer)
	tp.takeCounters(out.untraced)
	out.traced = &tp
	stats, gaps := out.tracer.selfTimes()
	printLayerReport(stats, gaps, []layerRow{
		{"frontend", []string{"db.open"}, fmt.Sprintf("plancache hits/lookups=%.0f/%.0f", tp.layers["plancache.hit_ratio"]*tp.layers["plancache.lookups"], tp.layers["plancache.lookups"]), "p50_ms (query_geomean_ms), none on suite_s"},
		{"execution", []string{"db.drain"}, fmt.Sprintf("alloc_mb_per_pass=%.2f gc_pause_ms_per_pass=%.3f", tp.layers["exec.alloc_mb_per_pass"], tp.layers["gc.pause_ms_per_pass"]), "throughput_per_s (suite_s), p50_ms, peak_heap_mb"},
		{"hashtable", nil, fmt.Sprintf("tables=%.0f entries=%.0f resizes=%.0f probe_max=%.0f over the phase", tp.layers["hashtable.tables"], tp.layers["hashtable.entries"], tp.layers["hashtable.resizes"], tp.layers["hashtable.probe_max"]), "throughput_per_s (suite_s)"},
		{"storage", nil, fmt.Sprintf("groups scanned/pruned=%.0f/%.0f chunk fetches/loads=%.0f/%.0f decoded_mb=%.1f", tp.layers["storage.groups_scanned"], tp.layers["storage.groups_pruned"], tp.layers["bufmgr.chunk_fetches"], tp.layers["bufmgr.chunk_loads"], tp.layers["bufmgr.decoded_mb"]), "throughput_per_s (suite_s)"},
		{"client", []string{"db.box", "req", "pass"}, "boxing of result rows and loop overhead", "none"},
	})
	return nil
}
