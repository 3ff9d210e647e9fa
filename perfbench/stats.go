package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes; nanotime reads the
// monotonic clock relative to it.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// percentile returns the p-th percentile (0..100) of xs by nearest rank on
// a sorted copy. Values of +Inf (failed operations) sort above everything.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window brackets a measured phase: wall time, CPU time and the allocator
// counters at its start and end, and wall and CPU time at the boundaries of
// the slices it is cut into.
type window struct {
	start, end int64
	cpu0, cpu1 time.Duration
	mem0, mem1 runtime.MemStats
	marks      []mark // slice boundaries, start and end included
}

// mark is one slice boundary: wall and CPU time, and the live heap the
// most recent collection left.
type mark struct {
	at     int64
	cpu    time.Duration
	heapMB float64
}

func newMark() mark {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	var live float64
	if s[0].Value.Kind() == metrics.KindUint64 {
		live = float64(s[0].Value.Uint64()) / (1 << 20)
	}
	return mark{at: nanotime(), cpu: cpuTime(), heapMB: live}
}

// heapMB is the live heap over the window: the median, over the slice
// boundaries after the start, of what the latest collection left live.
// Sampling at every boundary keeps one collection's timing from deciding
// the figure, and forces no extra collection inside the window.
func (w *window) heapMB() float64 {
	var xs []float64
	for _, m := range w.marks[1:] {
		xs = append(xs, m.heapMB)
	}
	return median(xs)
}

func (w *window) begin() {
	runtime.ReadMemStats(&w.mem0)
	m := newMark()
	w.start, w.cpu0 = m.at, m.cpu
	w.marks = append(w.marks[:0], m)
}

// mark closes one slice of the window and opens the next.
func (w *window) mark() { w.marks = append(w.marks, newMark()) }

func (w *window) finish() {
	m := newMark()
	w.end, w.cpu1 = m.at, m.cpu
	w.marks = append(w.marks, m)
	runtime.ReadMemStats(&w.mem1)
}

// liveHeapAfterGC forces a collection and returns the live heap in MB.
func liveHeapAfterGC() float64 {
	runtime.GC()
	return newMark().heapMB
}

func (w *window) seconds() float64    { return float64(w.end-w.start) / 1e9 }
func (w *window) cpu() time.Duration  { return w.cpu1 - w.cpu0 }
func (w *window) mallocs() float64    { return float64(w.mem1.Mallocs - w.mem0.Mallocs) }
func (w *window) allocBytes() float64 { return float64(w.mem1.TotalAlloc - w.mem0.TotalAlloc) }
func (w *window) gcCycles() float64   { return float64(w.mem1.NumGC - w.mem0.NumGC) }
func (w *window) gcPause() time.Duration {
	return time.Duration(w.mem1.PauseTotalNs - w.mem0.PauseTotalNs)
}

// hist is a lock-free log-linear histogram of nanosecond durations: exact
// below 64 ns, then 32 sub-buckets per power of two (about 3% resolution).
// It records every hand-off and handler call of a traced run without
// keeping the samples.
type hist struct {
	b [histBuckets]atomic.Int64
	n atomic.Int64
}

const (
	histSub     = 32
	histExact   = 2 * histSub
	histBuckets = histExact + 58*histSub
)

func histIndex(v int64) int {
	if v < histExact {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 6
	return histExact + (shift-1)*histSub + int(v>>shift) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	shift := (i-histExact)/histSub + 1
	base := int64((i-histExact)%histSub + histSub)
	return (float64(base) + 0.5) * float64(int64(1)<<shift)
}

func (h *hist) observe(ns int64) {
	h.b[histIndex(ns)].Add(1)
	h.n.Add(1)
}

// quantile returns the p-th percentile (0..100) in nanoseconds.
func (h *hist) quantile(p float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	var seen int64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
