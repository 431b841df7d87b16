package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"dgsf/internal/metrics"
)

// quantile is one order statistic of a sample, with the sample size and the
// number of values beyond it, so a reader can judge how much it rests on.
type quantile struct {
	Pct    float64 // share of the sample at or below Value, in percent
	Value  float64
	N      int
	Beyond int
}

func (q quantile) String() string {
	return fmt.Sprintf("p%.4g=%.6g (n=%d, %d beyond)", q.Pct, q.Value, q.N, q.Beyond)
}

// median returns the nearest-rank median of s.
func median(s *metrics.Series) quantile { return percentile(s, 50) }

// tailMinN is the smallest sample whose tail is taken ten values from the
// top: with 30 samples that is p66.7, still above the median. A smaller
// sample reports its maximum, with Beyond telling the reader it is not a
// tail estimate.
const tailMinN = 30

// tail returns the highest percentile of s that still has at least ten
// samples beyond it, or the maximum of a sample under tailMinN.
func tail(s *metrics.Series) quantile {
	n := s.N()
	if n < tailMinN {
		return percentile(s, 100)
	}
	// Half a rank below n-10, so the nearest rank is n-10 whatever the
	// rounding of the division.
	return percentile(s, 100*(float64(n-10)-0.5)/float64(n))
}

// percentile reads s at p with metrics.Series's nearest-rank rule, in
// seconds.
func percentile(s *metrics.Series, p float64) quantile {
	n := s.N()
	if n == 0 {
		return quantile{Pct: p}
	}
	rank := n
	if p < 100 {
		rank = max(1, int(math.Ceil(p/100*float64(n))))
	}
	return quantile{Pct: 100 * float64(rank) / math.Max(1, float64(n)), Value: s.Percentile(p).Seconds(), N: n, Beyond: n - rank}
}

// expGaps draws n inter-arrival gaps of an exponential distribution with
// the given mean by stratified sampling: the uniforms behind the gaps are
// one draw from each of n equal strata, in random order. Every gap is
// still exponentially distributed, but the arrival span no longer varies
// with the seed, which is what keeps the benchmark's virtual-time metrics
// comparable across seeds.
func expGaps(rng *rand.Rand, n int, mean time.Duration) []time.Duration {
	gaps := make([]time.Duration, n)
	for i, stratum := range rng.Perm(n) {
		u := (float64(stratum) + rng.Float64()) / float64(n)
		gaps[i] = time.Duration(-math.Log1p(-u) * float64(mean))
	}
	return gaps
}

// blocks returns reps copies of items, each copy in its own seeded order:
// a shuffle that keeps the mix even along the arrival sequence.
func blocks[T any](rng *rand.Rand, items []T, reps int) []T {
	out := make([]T, 0, len(items)*reps)
	for r := 0; r < reps; r++ {
		blk := append([]T(nil), items...)
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		out = append(out, blk...)
	}
	return out
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // CPU seconds spent in GC
	totalCPU   float64 // CPU seconds available to the process
	procCPU    float64 // CPU seconds the process used, user and system
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	rtmetrics.Read(ms)
	return runtimeSample{
		procCPU:    procCPU().Seconds(),
		allocBytes: ms[0].Value.Uint64(),
		gcCycles:   ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
	}
}

// procCPU returns the CPU time the process has used so far, user and
// system, all threads, in nanoseconds (clock_gettime; getrusage would
// round to microseconds, a good part of a TCP boot). run checks the clock
// with cpuClock before any measurement, so a failure here is a bug.
func procCPU() time.Duration {
	d, err := cpuClock()
	if err != nil {
		panic(err)
	}
	return d
}

func cpuClock() (time.Duration, error) {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// boot is one set-up sample: host wall time and process CPU time from the
// start of a boot until the deployment could take its first submit.
type boot struct{ wall, cpu time.Duration }

// bootClock times one boot.
type bootClock struct {
	t0 time.Time
	c0 time.Duration
}

func startBoot() bootClock { return bootClock{t0: time.Now(), c0: procCPU()} }

func (c bootClock) stop() boot { return boot{wall: time.Since(c.t0), cpu: procCPU() - c.c0} }

func (r runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: r.allocBytes - o.allocBytes,
		gcCycles:   r.gcCycles - o.gcCycles,
		gcCPU:      r.gcCPU - o.gcCPU,
		totalCPU:   r.totalCPU - o.totalCPU,
		procCPU:    r.procCPU - o.procCPU,
	}
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Maxrss * 1024, nil // Linux reports KiB
}

// settle runs a full collection so garbage from set-up is not collected at
// a random point inside the next timed phase.
func settle() { runtime.GC() }

func (r runtimeSample) add(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: r.allocBytes + o.allocBytes,
		gcCycles:   r.gcCycles + o.gcCycles,
		gcCPU:      r.gcCPU + o.gcCPU,
		totalCPU:   r.totalCPU + o.totalCPU,
		procCPU:    r.procCPU + o.procCPU,
	}
}

// histogram records host latencies in fixed memory, so recording a few
// hundred thousand calls neither allocates nor moves the process's peak
// resident set. Buckets split each power of two into histSub equal parts
// (under 1% relative width); quantiles interpolate linearly inside a bucket.
type histogram struct {
	counts [64 * histSub]uint64
	n      uint64
	sum    float64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
)

func (h *histogram) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

// histIndex maps v to its bucket: values below histSub get a bucket each;
// above, the exponent selects a power of two and the next histSubBits bits
// below the leading one select the part.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub - 1
	part := uint64(i%histSub + histSub)
	return float64(part << uint(exp)), float64((part + 1) << uint(exp))
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the value at percentile pct, in the recorded unit.
func (h *histogram) quantile(pct float64) quantile {
	if h.n == 0 {
		return quantile{Pct: pct}
	}
	rank := uint64(math.Ceil(pct / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, hi := histBounds(i)
		v := lo + (hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		return quantile{Pct: pct, Value: v, N: int(h.n), Beyond: int(h.n - rank)}
	}
	return quantile{Pct: pct}
}

func (h *histogram) mean() float64 { return h.sum / math.Max(1, float64(h.n)) }
