package main

import (
	"context"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// median returns the middle of sorted (the mean of the two middles for an
// even count); false for no samples.
func median(sorted []float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return sorted[n/2], true
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2, true
}

// tailPercentile returns the nearest-rank q-quantile of sorted, or false
// when fewer than minTail samples lie beyond it: a tail read off too few
// samples is reported as missing, never interpolated.
func tailPercentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample reads the process-wide runtime counters the runtime layer
// metrics difference across a window.
type runtimeSample struct {
	allocs, allocBytes, gcCycles float64
	gcCPU, totalCPU              float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{allocs: v[0], allocBytes: v[1], gcCycles: v[2], gcCPU: v[3], totalCPU: v[4]}
}

// Unit index offsets of the windows of one run.
const (
	untracedPhase = 0
	tracedPhase   = 1 << 20
	ratioPhase    = 2 << 20
)

// unitRecord is one unit's outcome in a window.
type unitRecord struct {
	id         int32
	end        time.Duration // since the window started
	wall       time.Duration
	emulations int
	err        error
}

// windowResult is what one closed-loop window measured.
type windowResult struct {
	units      []unitRecord
	wall       time.Duration
	cpu        time.Duration
	emulations int
	rt0, rt1   runtimeSample
}

// rateGroups is how many consecutive slices of a window emulationsPerSec
// takes the median over.
const rateGroups = 20

// emulationsPerSec is the window's throughput: the median over rateGroups
// consecutive slices of the window, each ending where a unit ends, of the
// emulations completed in the slice over its length. A median of slices
// keeps a burst of interference from the rest of the host out of the
// figure; with fewer units than slices it is the whole-window rate.
func (w *windowResult) emulationsPerSec() float64 {
	units := append([]unitRecord(nil), w.units...)
	sort.Slice(units, func(i, j int) bool { return units[i].end < units[j].end })
	n := len(units)
	if n < rateGroups {
		return float64(w.emulations) / w.wall.Seconds()
	}
	rates := make([]float64, 0, rateGroups)
	var from time.Duration
	for g := 0; g < rateGroups; g++ {
		emu := 0
		for _, u := range units[g*n/rateGroups : (g+1)*n/rateGroups] {
			if u.err == nil {
				emu += u.emulations
			}
		}
		to := units[(g+1)*n/rateGroups-1].end
		rates = append(rates, float64(emu)/(to-from).Seconds())
		from = to
	}
	med, _ := median(sortedCopy(rates))
	return med
}

func (w *windowResult) failed() int {
	n := 0
	for _, u := range w.units {
		if u.err != nil {
			n++
		}
	}
	return n
}

// unitMillis returns the sorted unit wall times in milliseconds.
func (w *windowResult) unitMillis() []float64 {
	ms := make([]float64, len(w.units))
	for i, u := range w.units {
		ms[i] = float64(u.wall) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// unitFunc runs one unit for a client and returns the emulations it
// completed; an error fails the unit.
type unitFunc func(ctx context.Context, client, idx int) (int, error)

// runWindow drives clients closed-loop clients for d: each issues its next
// unit the moment the previous one returns, and none starts a unit after d
// has passed. The window ends when the last unit does. after, when set,
// runs after each unit's clock has stopped. tr, when non-nil, opens one
// "unit" span per unit. Unit indices start at phase, so each window of a
// run draws its own inputs.
func runWindow(ctx context.Context, clients int, d time.Duration, tr *tracer, unit unitFunc, after func(client int), phase int) *windowResult {
	var nextID atomic.Int32
	recs := make([][]unitRecord, clients)
	res := &windowResult{rt0: readRuntime()}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				id := nextID.Add(1) - 1
				uctx := withRef(ctx, spanRef{unit: id, id: -1})
				uctx, sid := tr.start(uctx, "unit")
				t0 := time.Now()
				n, err := unit(uctx, c, phase+i)
				wall := time.Since(t0)
				tr.end(sid)
				recs[c] = append(recs[c], unitRecord{id: id, end: time.Since(start), wall: wall, emulations: n, err: err})
				if after != nil {
					after(c)
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.rt1 = readRuntime()
	for _, r := range recs {
		res.units = append(res.units, r...)
	}
	sort.Slice(res.units, func(i, j int) bool { return res.units[i].id < res.units[j].id })
	for _, u := range res.units {
		if u.err == nil {
			res.emulations += u.emulations
		}
	}
	return res
}
