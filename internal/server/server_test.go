package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	vectorwise "vectorwise"
)

// newTestServer builds a Server over an in-memory DB with a seeded
// table, mounted on an httptest server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := vectorwise.OpenMemory()
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES (1,'a'), (2,'b'), (3,'c')`); err != nil {
		t.Fatal(err)
	}
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postQuery issues a /v1/query request and decodes the response into out.
func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestQueryEndpointSelect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got QueryResponse
	code := postQuery(t, ts, QueryRequest{SQL: `SELECT k, v FROM kv ORDER BY k`}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Columns) != 2 || got.Columns[0] != "k" {
		t.Fatalf("columns: %v", got.Columns)
	}
	if len(got.Rows) != 3 {
		t.Fatalf("rows: %v", got.Rows)
	}
	// JSON numbers decode as float64; strings stay strings.
	if got.Rows[0][0].(float64) != 1 || got.Rows[0][1].(string) != "a" {
		t.Fatalf("row 0: %v", got.Rows[0])
	}
	if got.RowsAffected != nil {
		t.Fatalf("SELECT should not set rows_affected")
	}
}

func TestQueryEndpointDML(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got QueryResponse
	code := postQuery(t, ts, QueryRequest{SQL: `UPDATE kv SET v = 'z' WHERE k > 1`}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.RowsAffected == nil || *got.RowsAffected != 2 {
		t.Fatalf("rows_affected: %v", got.RowsAffected)
	}
	var sel QueryResponse
	postQuery(t, ts, QueryRequest{SQL: `SELECT v FROM kv WHERE k = 3`}, &sel)
	if len(sel.Rows) != 1 || sel.Rows[0][0].(string) != "z" {
		t.Fatalf("update not visible: %v", sel.Rows)
	}
}

func TestQueryEndpointNullAndDate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postQuery(t, ts, QueryRequest{
		SQL: `CREATE TABLE ev (d DATE, note VARCHAR NULL)`}, nil); code != http.StatusOK {
		t.Fatalf("create: %d", code)
	}
	if code := postQuery(t, ts, QueryRequest{
		SQL: `INSERT INTO ev VALUES (DATE '2011-04-05', NULL)`}, nil); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	var got QueryResponse
	postQuery(t, ts, QueryRequest{SQL: `SELECT d, note FROM ev`}, &got)
	if len(got.Rows) != 1 || got.Rows[0][0].(string) != "2011-04-05" || got.Rows[0][1] != nil {
		t.Fatalf("rows: %v", got.Rows)
	}
}

// TestQueryEndpointEmptyAggregatesAreNull: aggregates over no rows
// reach the wire as JSON null; COUNT stays 0.
func TestQueryEndpointEmptyAggregatesAreNull(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got QueryResponse
	code := postQuery(t, ts, QueryRequest{
		SQL: `SELECT SUM(k), MIN(k), MAX(k), AVG(k), COUNT(*) FROM kv WHERE k > 10`}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Rows) != 1 || len(got.Rows[0]) != 5 {
		t.Fatalf("rows: %v", got.Rows)
	}
	row := got.Rows[0]
	for i := 0; i < 4; i++ {
		if row[i] != nil {
			t.Errorf("column %d = %v, want null", i, row[i])
		}
	}
	if row[4] != float64(0) {
		t.Errorf("COUNT(*) = %v, want 0", row[4])
	}
}

func TestStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"syntax", `{"sql": "SELEC nope"}`, http.StatusBadRequest, "bad_request"},
		{"missing sql", `{}`, http.StatusBadRequest, "bad_request"},
		{"bad json", `{"sql": `, http.StatusBadRequest, "bad_request"},
		{"unknown session", `{"sql": "SELECT k FROM kv", "session": "nope"}`, http.StatusNotFound, "not_found"},
		{"unknown table", `{"sql": "SELECT x FROM missing"}`, http.StatusNotFound, "not_found"},
		{"explicit txn", `{"sql": "BEGIN"}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Error.Code != tc.wantErr {
				t.Fatalf("code %q, want %q", e.Error.Code, tc.wantErr)
			}
			if e.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestParseErrorPositionWire pins the wire shape of a parse error: the
// /v1/query JSON error body carries a "position" object with exactly
// the field names clients key on (offset/line/col/near), on both the
// buffered and the streaming entry points. Decoding into a generic map
// keeps the test honest about the raw JSON keys.
func TestParseErrorPositionWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/query", "/v1/query?stream=1"} {
		t.Run(path, func(t *testing.T) {
			resp, err := http.Post(ts.URL+path, "application/json",
				strings.NewReader(`{"sql": "SELECT k\nFROM kv WHERE ***"}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var raw map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatal(err)
			}
			errObj, ok := raw["error"].(map[string]any)
			if !ok {
				t.Fatalf("no error object: %v", raw)
			}
			if errObj["code"] != "bad_request" {
				t.Fatalf("code %v, want bad_request", errObj["code"])
			}
			pos, ok := errObj["position"].(map[string]any)
			if !ok {
				t.Fatalf("no position object: %v", errObj)
			}
			// The offending token is the `*` on line 2.
			if pos["line"] != float64(2) || pos["col"] != float64(15) || pos["offset"] != float64(23) {
				t.Fatalf("position %v, want line 2 col 15 offset 23", pos)
			}
			if near, _ := pos["near"].(string); near == "" {
				t.Fatalf("position lacks near: %v", pos)
			}
		})
	}
	// A valid statement must not grow a position field.
	var okRaw map[string]any
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql": "SELEC nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&okRaw); err != nil {
		t.Fatal(err)
	}
	if e, ok := okRaw["error"].(map[string]any); !ok || e["position"] == nil {
		t.Fatalf("misspelled keyword should still carry a position: %v", okRaw)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Valid JSON framing so the decoder reads past the byte cap
	// instead of bailing on a syntax error first.
	big := append([]byte(`{"sql":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1024)...)
	big = append(big, `"}`...)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "too_large" {
		t.Fatalf("code %q", e.Error.Code)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sess Session
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sess.ID == "" {
		t.Fatal("empty session id")
	}

	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT k FROM kv`, Session: sess.ID}, nil); code != http.StatusOK {
		t.Fatalf("query with session: %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sess.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	// Second delete: gone.
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete: %d", dresp2.StatusCode)
	}
	// Using the deleted session fails.
	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT k FROM kv`, Session: sess.ID}, nil); code != http.StatusNotFound {
		t.Fatalf("query with dead session: %d", code)
	}
}

func TestSessionExpiry(t *testing.T) {
	tbl := newSessionTable(50 * time.Millisecond)
	now := time.Now()
	s := tbl.create(now)
	if tbl.sweep(now.Add(10*time.Millisecond)) != 0 {
		t.Fatal("fresh session swept")
	}
	if n := tbl.sweep(now.Add(time.Second)); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if _, err := tbl.get(s.ID); err == nil {
		t.Fatal("expired session still resolvable")
	}
	// Expiry must not depend on the sweeper: get() itself rejects a
	// session whose TTL lapsed, even before any sweep runs.
	s2 := tbl.create(time.Now().Add(-time.Second))
	if _, err := tbl.get(s2.ID); err == nil {
		t.Fatal("get accepted a session idle past its TTL")
	}
	if _, err := tbl.get(s2.ID); err == nil {
		t.Fatal("expired session not removed by get")
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1, QueryTimeout: time.Second})
	// Occupy the single slot directly so the next request finds the
	// waiting room (capacity 0) full.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	var e ErrorResponse
	code := postQuery(t, ts, QueryRequest{SQL: `SELECT k FROM kv`}, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if e.Error.Code != "overloaded" {
		t.Fatalf("code %q", e.Error.Code)
	}
	st := s.adm.snapshot()
	if st.Rejected == 0 {
		t.Fatalf("rejections not counted: %+v", st)
	}
}

func TestAdmissionWaiterTimesOut(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err %v, want DeadlineExceeded", err)
	}
	st := a.snapshot()
	if st.Abandoned != 1 || st.Waiting != 0 {
		t.Fatalf("stats: %+v", st)
	}
	a.release()
	// The freed slot is reusable.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.release()
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 3})
	for i := 0; i < 5; i++ {
		postQuery(t, ts, QueryRequest{SQL: fmt.Sprintf(`SELECT k FROM kv WHERE k = %d`, i)}, nil)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.MaxConcurrent != 3 {
		t.Fatalf("max_concurrent: %+v", st.Admission)
	}
	if st.Admission.Admitted < 5 {
		t.Fatalf("admitted %d, want >= 5", st.Admission.Admitted)
	}
	if st.Admission.InFlight != 0 {
		t.Fatalf("in_flight should be 0 at rest: %+v", st.Admission)
	}

	// DML through the server publishes a new epoch snapshot; the stats
	// endpoint exposes the current data epoch so operators can watch it
	// advance.
	before := st.DataEpoch
	if code := postQuery(t, ts, QueryRequest{SQL: `INSERT INTO kv VALUES (99, 'z')`}, nil); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 StatsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.DataEpoch <= before {
		t.Fatalf("data_epoch did not advance after DML: %d -> %d", before, st2.DataEpoch)
	}
}

// TestStatsHashWireShape pins the /v1/stats hash-table counter JSON:
// field names are API surface, and after an aggregate plus a join the
// cumulative counters must be populated.
func TestStatsHashWireShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT v, COUNT(*) FROM kv GROUP BY v`}, nil); code != http.StatusOK {
		t.Fatalf("agg status %d", code)
	}
	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT a.k FROM kv a JOIN kv b ON a.k = b.k`}, nil); code != http.StatusOK {
		t.Fatalf("join status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var hash map[string]json.Number
	if err := json.Unmarshal(raw["hash"], &hash); err != nil {
		t.Fatalf("hash section: %v", err)
	}
	for _, field := range []string{"tables", "entries", "resizes", "probe_max"} {
		if _, ok := hash[field]; !ok {
			t.Fatalf("hash section missing %q: %v", field, hash)
		}
	}
	if tables, _ := hash["tables"].Int64(); tables < 2 {
		t.Fatalf("want >= 2 hash tables (agg + join), got %v", hash["tables"])
	}
	if entries, _ := hash["entries"].Int64(); entries < 3 {
		t.Fatalf("want >= 3 cumulative entries, got %v", hash["entries"])
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// planCacheStats fetches the engine plan-cache counters via /v1/stats.
func planCacheStats(t *testing.T, ts *httptest.Server) (hits, misses uint64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.PlanCache.Hits, st.PlanCache.Misses
}

// TestRepeatedParametrizedSelectSkipsPlanning is the acceptance check
// for the plan cache: after the first request, repeated parametrized
// SELECTs over HTTP are served entirely from the cached template — the
// counters show hits with zero fresh misses, i.e. the parser and
// rewriter never ran again.
func TestRepeatedParametrizedSelectSkipsPlanning(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{SQL: `SELECT v FROM kv WHERE k = ?`}

	req.Params = []any{1}
	var got QueryResponse
	if code := postQuery(t, ts, req, &got); code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].(string) != "a" {
		t.Fatalf("first rows: %v", got.Rows)
	}

	hits0, misses0 := planCacheStats(t, ts)
	for i, want := range []string{"b", "c"} {
		req.Params = []any{i + 2}
		var res QueryResponse
		if code := postQuery(t, ts, req, &res); code != http.StatusOK {
			t.Fatalf("repeat %d: %d", i, code)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(string) != want {
			t.Fatalf("repeat %d rows: %v", i, res.Rows)
		}
	}
	hits1, misses1 := planCacheStats(t, ts)
	if misses1 != misses0 {
		t.Fatalf("repeated requests re-planned: misses %d → %d", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Fatalf("repeated requests did not hit the cache: hits %d → %d", hits0, hits1)
	}
}

func TestNamedPreparedStatements(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sess Session
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Prepare a named statement on the session.
	body := fmt.Sprintf(`{"session": %q, "name": "get", "sql": "SELECT v FROM kv WHERE k = $1"}`, sess.ID)
	presp, err := http.Post(ts.URL+"/v1/prepare", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var prep PrepareResponse
	if err := json.NewDecoder(presp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || prep.NumParams != 1 || !prep.Select {
		t.Fatalf("prepare: %d %+v", presp.StatusCode, prep)
	}

	// Execute by name.
	var got QueryResponse
	if code := postQuery(t, ts, QueryRequest{Stmt: "get", Session: sess.ID, Params: []any{3}}, &got); code != http.StatusOK {
		t.Fatalf("execute by name: %d", code)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].(string) != "c" {
		t.Fatalf("rows: %v", got.Rows)
	}

	// stmt without a session is a client error; unknown names are 404.
	if code := postQuery(t, ts, QueryRequest{Stmt: "get"}, nil); code != http.StatusBadRequest {
		t.Fatalf("stmt without session: %d", code)
	}
	if code := postQuery(t, ts, QueryRequest{Stmt: "nope", Session: sess.ID}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown stmt: %d", code)
	}
	// Both sql and stmt is ambiguous.
	if code := postQuery(t, ts, QueryRequest{SQL: "SELECT 1", Stmt: "get", Session: sess.ID}, nil); code != http.StatusBadRequest {
		t.Fatalf("sql+stmt: %d", code)
	}

	// Deallocate, then the name is gone.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/prepare/get?session="+sess.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("deallocate: %d", dresp.StatusCode)
	}
	if code := postQuery(t, ts, QueryRequest{Stmt: "get", Session: sess.ID, Params: []any{3}}, nil); code != http.StatusNotFound {
		t.Fatalf("deallocated stmt still executes: %d", code)
	}
}

func TestPreparedDMLOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sess Session
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := fmt.Sprintf(`{"session": %q, "name": "ins", "sql": "INSERT INTO kv VALUES (?, ?)"}`, sess.ID)
	presp, err := http.Post(ts.URL+"/v1/prepare", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var prep PrepareResponse
	json.NewDecoder(presp.Body).Decode(&prep)
	presp.Body.Close()
	if prep.Select || prep.NumParams != 2 {
		t.Fatalf("prepare DML: %+v", prep)
	}
	var got QueryResponse
	if code := postQuery(t, ts, QueryRequest{Stmt: "ins", Session: sess.ID, Params: []any{9, "i"}}, &got); code != http.StatusOK {
		t.Fatalf("insert by name: %d", code)
	}
	if got.RowsAffected == nil || *got.RowsAffected != 1 {
		t.Fatalf("rows_affected: %v", got.RowsAffected)
	}
	var sel QueryResponse
	postQuery(t, ts, QueryRequest{SQL: `SELECT v FROM kv WHERE k = ?`, Params: []any{9}}, &sel)
	if len(sel.Rows) != 1 || sel.Rows[0][0].(string) != "i" {
		t.Fatalf("insert not visible: %v", sel.Rows)
	}
}

func TestExplainOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got QueryResponse
	code := postQuery(t, ts, QueryRequest{SQL: `SELECT v FROM kv WHERE k = ?`, Explain: true}, &got)
	if code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}
	if !strings.Contains(got.Plan, "Scan kv") || !strings.Contains(got.Plan, "$1") {
		t.Fatalf("plan text:\n%s", got.Plan)
	}
	if got.Rows != nil {
		t.Fatal("explain must not execute")
	}
	// Explain of DML is a client error.
	if code := postQuery(t, ts, QueryRequest{SQL: `DELETE FROM kv`, Explain: true}, nil); code != http.StatusBadRequest {
		t.Fatalf("explain DML: %d", code)
	}
}

func TestParamErrorsOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Arity mismatch is caught before execution: client error.
	var e ErrorResponse
	if code := postQuery(t, ts, QueryRequest{SQL: `SELECT v FROM kv WHERE k = ?`}, &e); code != http.StatusBadRequest {
		t.Fatalf("missing params: %d, want 400", code)
	}
	// Structured params cannot bind.
	body := `{"sql": "SELECT v FROM kv WHERE k = ?", "params": [[1,2]]}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("array param: %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: %d, want 405", resp.StatusCode)
	}
}
