package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the index of the enclosing span
// (-1 for a root) and Req groups the spans of one request or pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  []float64     // per-span self time, µs
}

// selfTimes computes every span's self time: its duration minus the
// union of the intervals its children cover, clipped to the span. It
// returns the per-name aggregates and, for each root name, the relative
// gap between the roots' summed durations and the self times summed over
// their trees (zero when children nest in their parents and never
// overlap each other).
func (t *tracer) selfTimes() (map[string]*spanStat, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = time.Duration(s.End-s.Start) - covered(t.spans, s, kids[i])
	}
	stats := map[string]*spanStat{}
	for i, s := range t.spans {
		st := stats[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			stats[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self = append(st.self, us(self[i]))
	}
	var treeSelf func(i int) time.Duration
	treeSelf = func(i int) time.Duration {
		sum := self[i]
		for _, k := range kids[i] {
			sum += treeSelf(k)
		}
		return sum
	}
	rootSum, selfSum := map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		rootSum[s.Name] += float64(s.End - s.Start)
		selfSum[s.Name] += float64(treeSelf(i))
	}
	gaps := map[string]float64{}
	for n, d := range rootSum {
		if d > 0 {
			gaps[n] = math.Abs(selfSum[n]-d) / d
		}
	}
	return stats, gaps
}

// covered returns how much of parent's interval its children cover.
func covered(all []span, parent span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// maxSelfGap is how far the self times under a root may sum from the
// root's span before the trace is reported as inconsistent.
const maxSelfGap = 0.03

// layerRow is one line of the per-layer report.
type layerRow struct {
	layer  string // layer name as in the repository's modules
	spans  []string
	counts string // counts with their bases
	moves  string // end-to-end metric the layer should move
}

// printLayerReport prints self time per span name and the layer table.
func printLayerReport(stats map[string]*spanStat, gaps map[string]float64, rows []layerRow) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# span self times")
	fmt.Printf("%-22s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_p50_us")
	for _, n := range names {
		st := stats[n]
		selfSum := 0.0
		for _, x := range st.self {
			selfSum += x
		}
		fmt.Printf("%-22s %8d %12.3f %12.3f %12.2f\n", n, st.count, ms(st.total), selfSum/1e3, median(append([]float64(nil), st.self...)))
	}
	roots := make([]string, 0, len(gaps))
	for n := range gaps {
		roots = append(roots, n)
	}
	sort.Strings(roots)
	for _, n := range roots {
		verdict := "ok"
		if gaps[n] > maxSelfGap {
			verdict = "FAILED"
		}
		fmt.Printf("# self-time check %s: self times under %q roots sum to their spans within %.3f%%\n", verdict, n, 100*gaps[n])
	}
	fmt.Println("# layers")
	for _, r := range rows {
		selfSum := 0.0
		for _, n := range r.spans {
			if st := stats[n]; st != nil {
				for _, x := range st.self {
					selfSum += x
				}
			}
		}
		fmt.Printf("%-10s self_ms=%-10.3f %s -> moves %s\n", r.layer, selfSum/1e3, r.counts, r.moves)
	}
}
