// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads in a single process through the public surfaces
// (vectorwise.DB and the vwserve HTTP handler on a loopback listener),
// checks every answer against an independent reference, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its output:
//
//	perfbench -workload tpch-olap -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads, the metrics and what each one should
// move. run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	measure time.Duration // measured phase, split in halves when traced
	trace   bool
	workdir string // scratch space for on-disk databases and span files
	// capacity makes selective-http measure its closed-loop capacity
	// instead of running the open loop (the basis for httpRate).
	capacity bool
}

// phase is what one measured phase reports: the end-to-end metrics under
// their BENCHMARK.json names and the per-layer metrics; those derived
// from spans exist only in a traced phase.
type phase struct {
	e2e    map[string]float64
	layers map[string]float64
}

// counterKeys are the per-layer metrics counted over a whole phase. A
// traced run reports them from its untraced half, which replays and
// span bookkeeping do not inflate.
var counterKeys = []string{
	"plancache.hit_ratio", "plancache.lookups",
	"exec.alloc_kb_per_op", "gc.pause_us_per_op", "exec.alloc_mb_per_pass", "gc.pause_ms_per_pass",
	"hashtable.tables", "hashtable.entries", "hashtable.resizes", "hashtable.probe_max",
	"storage.groups_scanned", "storage.groups_pruned", "storage.pruned_ratio",
	"bufmgr.chunk_fetches", "bufmgr.chunk_loads", "bufmgr.decoded_mb",
	"mover.passes", "mover.folds", "mover.rebuilds", "mover.retries",
}

// takeCounters replaces p's counted metrics with those of from.
func (p *phase) takeCounters(from phase) {
	for _, k := range counterKeys {
		if v, ok := from.layers[k]; ok {
			p.layers[k] = v
		} else {
			delete(p.layers, k)
		}
	}
}

// outcome is a workload run's result.
type outcome struct {
	ops      opCounter
	setupS   float64
	untraced phase // the whole run, or its untraced first half
	traced   *phase
	tracer   *tracer
}

// workload runs set-up, warm-up and the measured phase(s).
type workload func(cfg config, out *outcome) error

var workloads = map[string]workload{
	"tpch-olap":      runOLAP,
	"selective-http": runHTTP,
	"dml-mixed":      runDML,
}

// The end-to-end metrics every workload reports (see README.md for what
// each means on each workload).
var e2eNames = []string{"setup_s", "peak_heap_mb", "throughput_per_s", "p50_ms", "p99_ms", "read_p50_ms"}

var e2eUnits = map[string]string{
	"setup_s": "s", "peak_heap_mb": "MB", "throughput_per_s": "1/s",
	"p50_ms": "ms", "p99_ms": "ms", "read_p50_ms": "ms",
}

// layerNames are the per-layer metrics every traced run reports; a layer
// a workload never enters reports 0.
var layerNames = []string{
	"warmup_s",
	"frontend.open_ms", "plancache.hit_ratio", "plancache.lookups",
	"sql.parse_us", "sql.plan_us", "rewriter.rewrite_us", "xcompile.compile_us",
	"exec.drain_ms", "exec.alloc_kb_per_op", "gc.pause_us_per_op",
	"hashtable.tables", "hashtable.entries", "hashtable.resizes", "hashtable.probe_max",
	"storage.groups_scanned", "storage.groups_pruned", "storage.pruned_ratio",
	"bufmgr.chunk_fetches", "bufmgr.chunk_loads", "bufmgr.decoded_mb",
	"server.encode_us", "server.other_us", "server.rejected",
	"dml.update_ms", "dml.delete_ms", "dml.insert_ms",
	"wal.bytes_per_row", "storage.disk_bytes_per_user_byte",
	"mover.passes", "mover.folds", "mover.rebuilds", "mover.retries",
	"recovery.reopen_ms", "gen.late_ms",
	"trace.overhead.throughput_per_s", "trace.overhead.p50_ms",
	"trace.overhead.p99_ms", "trace.overhead.read_p50_ms", "trace.overhead.peak_heap_mb",
}

func main() {
	name := flag.String("workload", "", "tpch-olap | selective-http | dml-mixed | all (the three in turn)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for on-disk databases and span files")
	capacity := flag.Bool("capacity", false, "selective-http only: measure closed-loop capacity instead")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = []string{"tpch-olap", "selective-http", "dml-mixed"}
	}
	if workloads[names[0]] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir, capacity: *capacity}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := 0
	for _, n := range names {
		fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
			n, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		out := &outcome{}
		if cfg.trace {
			out.tracer = newTracer()
		}
		if err := workloads[n](cfg, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		code = max(code, report(n, cfg, out))
		runtime.GC()
	}
	os.Exit(code)
}

// localNames gives, per workload, the workload-specific name of the
// end-to-end metrics that have one (see README.md).
var localNames = map[string]map[string]string{
	"tpch-olap":      {"throughput_per_s": "12 / suite_s", "p50_ms": "query_geomean_ms"},
	"selective-http": {"p50_ms": "lookup_p50_ms", "p99_ms": "lookup_p99_ms"},
	"dml-mixed":      {"throughput_per_s": "write_rows_per_s", "p50_ms": "write_p50_ms", "p99_ms": "write_p99_ms"},
}

// report prints the human-readable summary and the final JSON line, and
// returns the exit code: non-zero if any answer was wrong or any op failed.
func report(name string, cfg config, out *outcome) int {
	ops := &out.ops
	out.untraced.e2e["setup_s"] = out.setupS
	fmt.Printf("# ops=%d ops_failed=%d wrong_answers=%d\n", ops.attempted, ops.failed, ops.wrong)
	for _, m := range ops.msgs {
		fmt.Printf("# failure: %s\n", m)
	}
	metrics := map[string]any{}
	if !cfg.trace {
		for _, n := range e2eNames {
			fmt.Printf("%-18s %14.4f %-4s %s\n", n, out.untraced.e2e[n], e2eUnits[n], localNames[name][n])
			metrics[n] = map[string]any{"value": out.untraced.e2e[n], "unit": e2eUnits[n]}
		}
	} else {
		tr := out.traced
		for _, n := range e2eNames[1:] {
			d := tr.e2e[n] - out.untraced.e2e[n]
			tr.layers["trace.overhead."+n] = d
			fmt.Printf("# tracing overhead %-18s untraced %12.4f traced %12.4f (%+.1f%%)\n",
				n, out.untraced.e2e[n], tr.e2e[n], 100*d/out.untraced.e2e[n])
		}
		keys := make([]string, 0, len(tr.layers))
		for k := range tr.layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-36s %14.4f\n", k, tr.layers[k])
		}
		for _, n := range layerNames {
			metrics[n] = map[string]any{"value": tr.layers[n], "unit": layerUnit(n)}
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", name, cfg.seed))
		if err := out.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   ops.wrong == 0 && ops.failed == 0,
		"attempted": ops.attempted,
		"failed":    ops.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if ops.failed > 0 {
		return 1
	}
	return 0
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(n string) string {
	switch {
	case n == "warmup_s":
		return "s"
	case strings.HasSuffix(n, "_ms"):
		return "ms"
	case strings.HasSuffix(n, "_us"), strings.HasSuffix(n, "_us_per_op"), strings.HasSuffix(n, "_us_per_stmt"):
		return "us"
	case strings.HasSuffix(n, "_mb"):
		return "MB"
	case strings.HasSuffix(n, "_kb_per_op"):
		return "KB"
	case strings.HasSuffix(n, "_per_row"):
		return "B/row"
	case strings.HasSuffix(n, "ratio"), strings.HasSuffix(n, "_per_user_byte"):
		return "ratio"
	case strings.HasSuffix(n, "_per_s"):
		return "1/s"
	}
	return "count"
}

// newRNG returns the generator for one of a workload's op streams; each
// stream gets its own so adding draws to one never shifts another.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// How many times each workload builds its database: the median build
// time is setup_s and the last build is kept. The DML table loads in a
// tenth of a second, so it is built more often to steady the median.
const (
	setupRepeats    = 3
	dmlSetupRepeats = 15
)
