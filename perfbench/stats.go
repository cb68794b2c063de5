package main

import (
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place. It returns NaN for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowQuantile splits a time-ordered sample into n consecutive windows,
// takes the q-quantile of each and returns their median. A tail
// percentile of one long run is dominated by its single worst burst;
// the median over windows is the typical tail and far steadier between
// runs.
func windowQuantile(xs []float64, q float64, n int) float64 {
	if len(xs) < n {
		return quantile(append([]float64(nil), xs...), q)
	}
	per := make([]float64, n)
	for w := 0; w < n; w++ {
		lo, hi := w*len(xs)/n, (w+1)*len(xs)/n
		per[w] = quantile(append([]float64(nil), xs[lo:hi]...), q)
	}
	return median(per)
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler samples the bytes in live and not yet swept heap objects
// while it runs. It reads runtime/metrics, which does not stop the
// world, every period.
type heapSampler struct {
	samples []float64 // MB; written by the sampling goroutine until done
	stop    chan struct{}
	done    chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		read := func() {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
		}
		read()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// heapWindows is how many consecutive windows the peak heap is taken
// over. Where the garbage collector happens to finish a cycle moves a
// single peak by tens of MB; the median of the windows' peaks is the
// typical high-water mark and varies far less between runs.
const heapWindows = 5

// finish stops the sampler and returns the peak heap in MB: the median
// over heapWindows consecutive windows of each window's maximum.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	n := min(heapWindows, len(h.samples))
	peaks := make([]float64, n)
	for w := range peaks {
		for _, x := range h.samples[w*len(h.samples)/n : (w+1)*len(h.samples)/n] {
			peaks[w] = max(peaks[w], x)
		}
	}
	return median(peaks)
}

// memDelta is the allocation and GC work between two MemStats reads.
type memDelta struct {
	allocMB   float64
	gcPauseMs float64
	gcCycles  uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		gcCycles:  after.NumGC - before.NumGC,
	}
}

// digest fingerprints a workload's generated op stream, so two runs can
// show they fed the program the same inputs.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(parts ...any) {
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			d.h.Write([]byte(v))
		case int64:
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			d.h.Write(b[:])
		case int:
			d.add(int64(v))
		default:
			panic("digest: unsupported part")
		}
		d.h.Write([]byte{0})
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// opCounter tallies attempted and failed operations and keeps the first
// few failure messages. It is safe for concurrent use.
type opCounter struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	msgs      []string
}

// record counts one op; err != nil marks it failed, and wrong marks the
// failure as an incorrect answer rather than an error or refusal.
func (c *opCounter) record(err error, wrong bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if wrong {
		c.wrong++
	}
	if len(c.msgs) < 5 {
		c.msgs = append(c.msgs, err.Error())
	}
}
