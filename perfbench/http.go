package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/server"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// httpRate is selective-http's open-loop arrival rate in requests per
// second: about half the closed-loop capacity of this mix over two
// connections on the 2-CPU host the benchmark was defined on (measure it
// with -capacity).
const httpRate = 2000

// httpConns is the number of keep-alive client connections (= nproc).
const httpConns = 2

// httpReplayEvery is how often a traced run replays a request directly
// on the DB to split its server time into open, drain and encode.
const httpReplayEvery = 8

// The request kinds. A quarter of the order lookups are sent as literal
// SQL text, which the plan cache does not normalize: each is a miss.
const (
	kindPoint   = "point"
	kindLiteral = "literal"
	kindLines   = "lines"
	kindRange   = "range"
)

const (
	sqlPoint = `SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = $1`
	sqlLines = `SELECT l_linenumber, l_partkey, l_quantity, l_extendedprice, l_shipdate FROM lineitem WHERE l_orderkey = $1 ORDER BY l_linenumber`
	sqlRange = `SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderkey BETWEEN $1 AND $2`
)

// httpOp is one generated request.
type httpOp struct {
	at   time.Duration // arrival offset from the phase start
	kind string
	sql  string
	args []any
}

// genHTTPOp draws one request of the fixed mix: 45% parametrized order
// lookups, 15% literal order lookups, 25% lineitems of one order, 15%
// short key ranges aggregated. About 2% of lookup keys miss. Ranges start
// at an existing order, so none is empty: over empty input the engine's
// SUM returns 0 where SQL says NULL (the NULL-semantics item of
// ROADMAP.md), a correctness defect this benchmark leaves to that item.
func genHTTPOp(rng *rand.Rand, orders int64) httpOp {
	key := 1 + rng.Int64N(orders+orders/50)
	switch x := rng.IntN(100); {
	case x < 45:
		return httpOp{kind: kindPoint, sql: sqlPoint, args: []any{key}}
	case x < 60:
		return httpOp{kind: kindLiteral, sql: fmt.Sprintf(
			`SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d`, key),
			args: []any{key}}
	case x < 85:
		return httpOp{kind: kindLines, sql: sqlLines, args: []any{key}}
	default:
		lo := 1 + (key-1)%orders
		return httpOp{kind: kindRange, sql: sqlRange, args: []any{lo, lo + 16 + rng.Int64N(497)}}
	}
}

// params returns the JSON params of an op (literal lookups carry none).
func (op httpOp) params() []any {
	if op.kind == kindLiteral {
		return nil
	}
	return op.args
}

// httpRef holds the expected answers, read straight from a separately
// generated copy of the tables.
type httpRef struct {
	orders   int64
	order    []vtypes.Row // by o_orderkey; index 0 unused
	priceSum []float64    // priceSum[k] = sum of o_totalprice over keys 1..k
	lines    [][]vtypes.Row
}

func buildHTTPRef() (*httpRef, error) {
	cat, err := tpch.Generate(olapSF, 0)
	if err != nil {
		return nil, err
	}
	cols := func(table string, names ...string) ([]*vector.Vector, error) {
		t, _, err := cat.Resolve(table)
		if err != nil {
			return nil, err
		}
		out := make([]*vector.Vector, len(names))
		for i, n := range names {
			c := t.Schema().ColIndex(n)
			if c < 0 {
				return nil, fmt.Errorf("no column %s.%s", table, n)
			}
			if out[i], err = t.ReadAllColumn(c); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	o, err := cols("orders", "o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate")
	if err != nil {
		return nil, err
	}
	n := int64(o[0].Len())
	ref := &httpRef{orders: n, order: make([]vtypes.Row, n+1), priceSum: make([]float64, n+1), lines: make([][]vtypes.Row, n+1)}
	for i := 0; i < int(n); i++ {
		k := o[0].Get(i).I64
		if k != int64(i)+1 {
			return nil, fmt.Errorf("orders keys are not dense at %d", i)
		}
		ref.order[k] = vtypes.Row{o[0].Get(i), o[1].Get(i), o[2].Get(i), o[3].Get(i), o[4].Get(i)}
		ref.priceSum[k] = ref.priceSum[k-1] + o[3].Get(i).F64
	}
	l, err := cols("lineitem", "l_orderkey", "l_linenumber", "l_partkey", "l_quantity", "l_extendedprice", "l_shipdate")
	if err != nil {
		return nil, err
	}
	for i := 0; i < l[0].Len(); i++ {
		k := l[0].Get(i).I64
		ref.lines[k] = append(ref.lines[k], vtypes.Row{l[1].Get(i), l[2].Get(i), l[3].Get(i), l[4].Get(i), l[5].Get(i)})
	}
	return ref, nil
}

// expected returns the rows an op must return.
func (ref *httpRef) expected(op httpOp) []vtypes.Row {
	k := op.args[0].(int64)
	switch op.kind {
	case kindPoint, kindLiteral:
		if k > ref.orders {
			return nil
		}
		return []vtypes.Row{ref.order[k]}
	case kindLines:
		if k > ref.orders {
			return nil
		}
		return ref.lines[k] // generated in l_linenumber order
	default:
		lo, hi := min(k, ref.orders+1), min(op.args[1].(int64), ref.orders)
		if hi < lo {
			return []vtypes.Row{{vtypes.I64Value(0), vtypes.NullValue(vtypes.KindF64)}}
		}
		return []vtypes.Row{{vtypes.I64Value(hi - lo + 1), vtypes.F64Value(ref.priceSum[hi] - ref.priceSum[lo-1])}}
	}
}

// checkJSONRows compares decoded JSON rows with the expected values:
// integers exactly, floats within relTol, dates as their YYYY-MM-DD text.
func checkJSONRows(want []vtypes.Row, got [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		if len(got[i]) != len(w) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(w))
		}
		for c, wv := range w {
			if !jsonMatches(wv, got[i][c]) {
				return fmt.Errorf("row %d column %d is %v, want %v", i, c, got[i][c], wv)
			}
		}
	}
	return nil
}

func jsonMatches(want vtypes.Value, got any) bool {
	if want.Null {
		return got == nil
	}
	switch want.Kind {
	case vtypes.KindI64:
		n, ok := got.(json.Number)
		if !ok {
			return false
		}
		v, err := n.Int64()
		return err == nil && v == want.I64
	case vtypes.KindF64:
		n, ok := got.(json.Number)
		if !ok {
			return false
		}
		v, err := n.Float64()
		return err == nil && floatClose(v, want.F64)
	case vtypes.KindDate:
		s, ok := got.(string)
		return ok && s == vtypes.FormatDate(want.I64)
	case vtypes.KindStr:
		s, ok := got.(string)
		return ok && s == want.Str
	}
	return false
}

// httpClient sends queries to the loopback server.
type httpClient struct {
	url string
	c   *http.Client
}

var errRefused = errors.New("request refused")

// query sends one op and returns its decoded rows. A traced request
// names its span so the server-side middleware can attach to it.
func (hc *httpClient) query(op httpOp, span int, req int64) ([][]any, error) {
	body, err := json.Marshal(server.QueryRequest{SQL: op.sql, Params: op.params()})
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, hc.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if span >= 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(span))
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := hc.c.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		_ = dec.Decode(&e) // the status alone decides; the body only adds detail
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			return nil, fmt.Errorf("%w: %d %s", errRefused, resp.StatusCode, e.Error.Message)
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error.Message)
	}
	var qr server.QueryResponse
	if err := dec.Decode(&qr); err != nil {
		return nil, err
	}
	return qr.Rows, nil
}

const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

// traceMiddleware wraps the server's handler and, for requests that name
// a span, records the handler's time as a server.handler child of it.
func traceMiddleware(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := r.Header.Get(spanHeader)
		if s == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.Atoi(s)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		tr.add("server.handler", parent, req, t0, time.Now())
	})
}

// httpSample is one completed request of a measured phase.
type httpSample struct {
	kind      string
	latency   time.Duration // from the scheduled send time
	roundTrip time.Duration // from the actual send
	ok        bool
	refused   bool        // 429 or 503 from admission control or drain
	replay    *stmtTiming // traced replays only
}

func runHTTP(cfg config, out *outcome) error {
	db, setupS, err := loadTPCH()
	if err != nil {
		return err
	}
	out.setupS = setupS
	ref, err := buildHTTPRef()
	if err != nil {
		return err
	}
	runtime.GC()

	srv := server.New(db, server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: traceMiddleware(srv.Handler(), out.tracer)}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the run is over; a slow close only delays exit
		<-serveDone
	}()
	tp := &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns}
	defer tp.CloseIdleConnections()
	hc := &httpClient{url: "http://" + ln.Addr().String() + "/v1/query", c: &http.Client{Transport: tp}}

	check := func(op httpOp, rows [][]any, err error) bool {
		wrong := false
		if err == nil {
			if cerr := checkJSONRows(ref.expected(op), rows); cerr != nil {
				err, wrong = fmt.Errorf("%s %v: %w", op.kind, op.args, cerr), true
			}
		}
		out.ops.record(err, wrong)
		return err == nil
	}

	// Warm-up: a closed loop over its own stream until every request
	// kind has touched every row group (plan cache, buffer pool, first
	// decompression).
	w0 := time.Now()
	wrng := newRNG(cfg.seed, 3)
	for i := 0; i < 600; i++ {
		op := genHTTPOp(wrng, ref.orders)
		rows, err := hc.query(op, -1, 0)
		check(op, rows, err)
	}
	warmup := time.Since(w0).Seconds()
	fmt.Printf("# warmup_s %.4f\n", warmup)

	if cfg.capacity {
		return httpCapacity(cfg, hc, ref, out)
	}

	// The measured schedule: Poisson arrivals at httpRate over the whole
	// measured time.
	rng := newRNG(cfg.seed, 2)
	var ops []httpOp
	dg := newDigest()
	for at := time.Duration(0); at < cfg.measure; {
		at += time.Duration(rng.ExpFloat64() / httpRate * float64(time.Second))
		op := genHTTPOp(rng, ref.orders)
		op.at = at
		ops = append(ops, op)
		dg.add(op.sql, int64(op.at/time.Microsecond))
		for _, a := range op.args {
			dg.add(a.(int64))
		}
	}
	fmt.Printf("# op stream digest %016x (%d requests at %d/s)\n", dg.sum(), len(ops), httpRate)

	measure := func(ops []httpOp, tr *tracer) phase {
		c0 := readCounters(db)
		m0 := readMem()
		heap := startHeapSampler(5 * time.Millisecond)
		samples := make([]httpSample, len(ops))
		var late []float64
		jobs := make(chan int, len(ops))
		start := time.Now().Add(10 * time.Millisecond)
		base := ops[0].at
		var wg sync.WaitGroup
		var mu sync.Mutex
		var lastDone time.Time
		for w := 0; w < httpConns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					op := ops[i]
					due := start.Add(op.at - base)
					id := int64(i)
					t0 := time.Now()
					span := tr.begin("req", -1, id)
					rows, err := hc.query(op, span, id)
					tr.end(span)
					t1 := time.Now()
					ok := check(op, rows, err)
					s := httpSample{kind: op.kind, latency: t1.Sub(due), roundTrip: t1.Sub(t0), ok: ok, refused: errors.Is(err, errRefused)}
					if tr != nil && i%httpReplayEvery == 0 {
						s.replay = replayHTTP(db, op, tr, id, out)
					}
					samples[i] = s
					mu.Lock()
					if t1.After(lastDone) {
						lastDone = t1
					}
					mu.Unlock()
				}
			}()
		}
		for i, op := range ops {
			due := start.Add(op.at - base)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, ms(time.Since(due)))
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		peak := heap.finish()
		mem := memSince(m0)

		var all, points []float64
		rejected := 0
		for _, s := range samples {
			if s.refused {
				rejected++
			}
			if !s.ok {
				continue
			}
			all = append(all, ms(s.latency))
			if s.kind == kindPoint {
				points = append(points, ms(s.latency))
			}
		}
		p := phase{e2e: map[string]float64{
			"peak_heap_mb":     peak,
			"throughput_per_s": float64(len(all)) / lastDone.Sub(start).Seconds(),
			"p50_ms":           median(append([]float64(nil), all...)),
			"p99_ms":           windowQuantile(all, 0.99, 5),
			"read_p50_ms":      median(points),
		}, layers: map[string]float64{"warmup_s": warmup}}
		l := p.layers
		c0.addDeltas(readCounters(db), l)
		l["exec.alloc_kb_per_op"] = mem.allocMB * 1024 / float64(len(ops))
		l["gc.pause_us_per_op"] = mem.gcPauseMs * 1000 / float64(len(ops))
		lateSum := 0.0
		for _, x := range late {
			lateSum += x
		}
		l["gen.late_ms"] = lateSum / float64(len(late))
		l["server.rejected"] = float64(rejected)
		fmt.Printf("# phase: requests=%d lookup_p50_ms=%.4f lookup_p99_ms=%.4f gen_late_mean_ms=%.3f gen_late_p99_ms=%.3f\n",
			len(ops), p.e2e["p50_ms"], p.e2e["p99_ms"], l["gen.late_ms"], quantile(late, 0.99))
		if l["gen.late_ms"] > maxLateMs {
			out.ops.record(fmt.Errorf("open-loop generator ran %.1f ms late on average: run invalid", l["gen.late_ms"]), false)
		}
		if tr == nil {
			return p
		}
		byKind := map[string][]float64{}
		var open, encode, other []float64
		for _, s := range samples {
			if s.replay == nil || !s.ok {
				continue
			}
			r := s.replay
			byKind[s.kind] = append(byKind[s.kind], us(r.drain))
			open = append(open, ms(r.open))
			encode = append(encode, us(r.convert))
			other = append(other, us(s.roundTrip-r.total()))
		}
		for k, v := range byKind {
			l["exec.drain_us."+k] = median(v)
		}
		var drains []float64
		for _, v := range byKind {
			drains = append(drains, v...)
		}
		l["exec.drain_ms"] = median(drains) / 1000
		l["frontend.open_ms"] = median(open)
		l["server.encode_us"] = median(encode)
		l["server.other_us"] = median(other)
		addSpanLayers(tr, l)
		return p
	}
	half := len(ops)
	if cfg.trace {
		half = len(ops) / 2
	}
	out.untraced = measure(ops[:half], nil)
	if !cfg.trace {
		return nil
	}
	tph := measure(ops[half:], out.tracer)
	tph.takeCounters(out.untraced)
	out.traced = &tph
	l := tph.layers
	stats, gaps := out.tracer.selfTimes()
	printLayerReport(stats, gaps, []layerRow{
		{"frontend", []string{"db.open"}, fmt.Sprintf("plancache hits/lookups=%.0f/%.0f", l["plancache.hit_ratio"]*l["plancache.lookups"], l["plancache.lookups"]), "p50_ms (lookup_p50_ms), read_p50_ms"},
		{"execution", []string{"db.drain"}, fmt.Sprintf("alloc_kb_per_request=%.1f gc_pause_us_per_request=%.2f", l["exec.alloc_kb_per_op"], l["gc.pause_us_per_op"]), "p50_ms, peak_heap_mb"},
		{"hashtable", nil, fmt.Sprintf("tables=%.0f entries=%.0f (expected zero work)", l["hashtable.tables"], l["hashtable.entries"]), "none"},
		{"storage", nil, fmt.Sprintf("groups scanned/pruned=%.0f/%.0f pruned_ratio=%.3f chunk fetches/loads=%.0f/%.0f", l["storage.groups_scanned"], l["storage.groups_pruned"], l["storage.pruned_ratio"], l["bufmgr.chunk_fetches"], l["bufmgr.chunk_loads"]), "p50_ms (lookup_p50_ms)"},
		{"server", []string{"server.handler", "server.encode"}, fmt.Sprintf("rejected=%.0f of %d requests", l["server.rejected"], len(ops)-half), "p50_ms, p99_ms (lookup_p50_ms, lookup_p99_ms)"},
		{"client", []string{"req"}, "client encode/decode and loopback transport", "p50_ms"},
	})
	return nil
}

// maxLateMs is the mean generator lateness past which an open-loop run
// is invalid: the schedule, not the server, would set the load. Single
// late sends are expected (the generator shares the process's two CPUs
// with server and client) and cost nothing in accuracy, because latency
// is timed from the scheduled send.
const maxLateMs = 5.0

// replayHTTP repeats a request directly on the DB, outside its timing:
// db.open, db.drain and server.encode (server.EncodeBatch on each batch)
// under a replay span, then the front-end layers under frontend.replay.
func replayHTTP(db *vectorwise.DB, op httpOp, tr *tracer, req int64, out *outcome) *stmtTiming {
	root := tr.begin("replay", -1, req)
	t, err := runSelect(db, op.sql, op.params(), func(b *vector.Batch) { _ = server.EncodeBatch(b) }, "server.encode", tr, root, req)
	tr.end(root)
	if err == nil {
		err = replayFrontend(db, op.sql, op.params(), tr, req)
	}
	if err != nil {
		out.ops.record(fmt.Errorf("replay %s: %w", op.kind, err), false)
		return nil
	}
	return &t
}

// httpCapacity measures the closed-loop throughput of the mix over
// httpConns connections, the basis for httpRate.
func httpCapacity(cfg config, hc *httpClient, ref *httpRef, out *outcome) error {
	rng := newRNG(cfg.seed, 4)
	ops := make([]httpOp, 200000)
	for i := range ops {
		ops[i] = genHTTPOp(rng, ref.orders)
	}
	var next sync.Mutex
	n := 0
	var wg sync.WaitGroup
	deadline := time.Now().Add(cfg.measure)
	t0 := time.Now()
	for w := 0; w < httpConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				next.Lock()
				op := ops[n%len(ops)]
				n++
				next.Unlock()
				rows, err := hc.query(op, -1, 0)
				if err != nil || checkJSONRows(ref.expected(op), rows) != nil {
					out.ops.record(fmt.Errorf("capacity run: %s failed", op.kind), true)
				}
			}
		}()
	}
	wg.Wait()
	capacity := float64(n) / time.Since(t0).Seconds()
	fmt.Printf("# closed-loop capacity %.0f requests/s over %d connections\n", capacity, httpConns)
	out.untraced = phase{e2e: map[string]float64{"throughput_per_s": capacity}}
	return nil
}
