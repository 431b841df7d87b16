// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a time budget, checks the program's outputs, and prints
// every end-to-end metric (or, with --trace 1, every per-layer metric from
// a separate traced run) as the last line of standard output, in JSON.
//
//	perfbench --workload paper-mix --seed 1 --seconds 10 --trace 0
//
// It drives the system only through its public entry points and measures
// layers from outside, at boundaries the code already exposes. See
// README.md in this directory for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dgsf/internal/metrics"
)

// setup_s is the median process CPU time of extra boots besides the timed
// rounds' own: one boot takes a millisecond or less, so a single sample, or
// a burst of them, catches whatever else the host did at that moment. Half
// the boots run before the timed rounds and half after, at least setupReps
// in all and until setupWindow of host time has passed.
const (
	setupReps   = 16
	setupWindow = time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-mix, fleet-flood or tcp-loopback")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase, host seconds")
	traced := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the traced run's spans")
	flag.Parse()

	ws := map[string]workload{}
	for _, w := range []workload{paperMix(), fleetFlood(), tcpLoopback()} {
		ws[w.name] = w
	}
	w, ok := ws[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload paper-mix|fleet-flood|tcp-loopback --seed N --seconds S --trace 0|1\n")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if _, err := cpuClock(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	res, err := measure(w, *seed, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	var metrics map[string]metric
	if *traced == 1 {
		tr, err := measureTraced(w, *seed, budget, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", w.name, err)
			return 1
		}
		if err := writeSpans(*out, w.name, tr.pr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		metrics = layerMetrics(res, tr)
	} else {
		metrics = endToEnd(res)
	}

	for _, g := range res.gates {
		fmt.Printf("GATE FAILED: %s\n", g)
	}
	line, err := json.Marshal(report{
		Correct:   len(res.gates) == 0,
		Attempted: res.inv,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.gates) > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is an untraced measurement: the setup samples and every timed
// round, each with its own probe.
type result struct {
	w      workload
	setups []boot
	rounds []*round
	probes []*probe
	inv    int
	failed int
	timed  time.Duration
	rt     runtimeSample
	gates  []string
}

// measure boots the workload setupReps times for setup_s, then runs rounds
// until budget has passed, and applies the correctness gates.
func measure(w workload, seed int64, budget time.Duration) (*result, error) {
	res := &result{w: w}
	if err := res.bootSamples(seed, setupReps/2, setupWindow/2); err != nil {
		return nil, err
	}
	// Rounds repeat while at least half of another round fits the budget,
	// so a run measures about the budget and a round that nearly fills it
	// is not doubled.
	for len(res.rounds) == 0 || res.timed+res.timed/time.Duration(2*len(res.rounds)) <= budget {
		pr := newProbe(false)
		r, err := w.round(seed, pr, budget)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, r)
		res.probes = append(res.probes, pr)
		res.setups = append(res.setups, r.setups...)
		res.inv += r.inv
		res.failed += r.failed
		res.timed += r.timed
		res.rt = res.rt.add(r.runtime)
		res.gates = append(res.gates, r.gates...)
	}
	if err := res.bootSamples(seed, setupReps/2, setupWindow/2); err != nil {
		return nil, err
	}
	// Rounds of one seed replay the same inputs, so everything the model
	// computes must repeat exactly.
	want := res.rounds[0].fingerprint(res.probes[0], false)
	for i, r := range res.rounds[1:] {
		if got := r.fingerprint(res.probes[i+1], false); got != want {
			res.gates = append(res.gates, fmt.Sprintf("round %d differs from round 1 under the same seed:\n  %s\n  %s", i+2, got, want))
		}
	}
	if len(res.gates) > 0 && res.failed == 0 {
		res.failed = 1 // a failed gate is a failed run even when every invocation returned
	}
	return res, nil
}

// bootSamples adds at least n setup samples, more until window has passed.
func (res *result) bootSamples(seed int64, n int, window time.Duration) error {
	start := time.Now()
	for i := 0; i < n || time.Since(start) < window; i++ {
		settle()
		d, err := res.w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, d)
	}
	return nil
}

// traced is one traced round and its probe.
type traced struct {
	r  *round
	pr *probe
}

// measureTraced runs one traced round of the same inputs and checks that
// tracing changed nothing the model computes.
func measureTraced(w workload, seed int64, budget time.Duration, res *result) (*traced, error) {
	settle()
	pr := newProbe(true)
	r, err := w.round(seed, pr, budget)
	if err != nil {
		return nil, err
	}
	res.gates = append(res.gates, r.gates...)
	res.failed += r.failed
	perInv := w.name == "tcp-loopback" // time-bounded rounds differ in length
	if got, want := r.fingerprint(pr, perInv), res.rounds[0].fingerprint(res.probes[0], perInv); got != want {
		res.gates = append(res.gates, fmt.Sprintf("traced round differs from untraced under the same seed:\n  traced   %s\n  untraced %s", got, want))
	}
	if len(res.gates) > 0 && res.failed == 0 {
		res.failed = 1
	}
	return &traced{r: r, pr: pr}, nil
}

// endToEnd computes the end-to-end metrics of an untraced measurement and
// prints them, each percentile with its sample size.
func endToEnd(res *result) map[string]metric {
	r0 := res.rounds[0]
	rss, err := peakRSS()
	if err != nil {
		res.gates = append(res.gates, err.Error())
	}
	setupCPU, setupWall := res.setupMedians()
	ms := map[string]metric{
		"setup_s":          {setupCPU.Value, "s"},
		"cpu_ms_per_inv":   {1e3 * res.rt.procCPU / float64(res.inv), "ms"},
		"alloc_kb_per_inv": {float64(res.rt.allocBytes) / 1024 / float64(res.inv), "KiB"},
		"rss_peak_mb":      {float64(rss) / (1 << 20), "MiB"},
		"success_pct":      {100 * float64(res.inv-res.failed) / float64(res.inv), "%"},
	}
	for k, v := range virtual(r0) {
		ms[k] = metric{v, map[bool]string{true: "%", false: "s"}[strings.HasSuffix(k, "_pct")]}
	}

	fmt.Printf("workload %s: %d invocations in %d round(s), %.3f host s timed, %.1f inv/s\n",
		res.w.name, res.inv, len(res.rounds), res.timed.Seconds(), res.invPerSec())
	fmt.Printf("  setup CPU s: %v; wall s: %v\n", setupCPU, setupWall)
	fmt.Printf("  virtual E2E s (round 1): %v, %v\n", median(&r0.m.e2e), tail(&r0.m.e2e))
	printMetrics(ms)
	return ms
}

// setupMedians returns the median process CPU time and the median wall
// time of every boot the measurement made.
func (res *result) setupMedians() (cpu, wall quantile) {
	var c, w metrics.Series
	for _, b := range res.setups {
		c.Add(b.cpu)
		w.Add(b.wall)
	}
	return median(&c), median(&w)
}

// invPerSec is the wall-clock throughput of the untraced timed phases.
func (res *result) invPerSec() float64 { return float64(res.inv) / res.timed.Seconds() }

// layerMetrics computes the per-layer metrics from the traced round, with
// host-time ratios taken against the untraced measurement, and prints them
// with their base counts.
func layerMetrics(res *result, t *traced) map[string]metric {
	r, pr := t.r, t.pr
	inv := float64(r.inv)
	dispatches, blocks := pr.simCounts()
	g := r.m.guest
	untracedNsPerInv := float64(res.timed.Nanoseconds()) / float64(res.inv)
	untracedRate := res.invPerSec()
	tracedRate := inv / r.timed.Seconds()
	var calls histogram // untraced: every round trip of every timed round
	for _, p := range res.probes {
		calls.merge(&p.calls)
	}
	p50, p99 := calls.quantile(50), calls.quantile(99)
	_, setupWall := res.setupMedians()
	hitPct := 0.0
	if n := r.m.cacheHits + r.m.cacheMisses; n > 0 {
		hitPct = 100 * float64(r.m.cacheHits) / float64(n)
	}
	per := func(n int64) float64 { return float64(n) / inv }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := map[string]metric{
		"base.invocations":              {inv, "count"},
		"base.roundtrips":               {float64(pr.roundtrips), "count"},
		"base.dispatches":               {float64(dispatches), "count"},
		"base.store_lists":              {float64(pr.storeLists), "count"},
		"host.inv_per_s":                {untracedRate, "1/s"},
		"host.setup_wall_s":             {setupWall.Value, "s"},
		"trace.inv_per_s":               {tracedRate, "1/s"},
		"trace.overhead_pct":            {100 * (untracedRate/tracedRate - 1), "%"},
		"sim.dispatches_per_inv":        {per(dispatches), "count"},
		"sim.blocks_per_inv":            {per(blocks), "count"},
		"sim.host_ns_per_dispatch":      {ratio(int64(untracedNsPerInv*inv), dispatches), "ns"},
		"remoting.roundtrips_per_inv":   {per(pr.roundtrips), "count"},
		"remoting.submits_per_inv":      {per(pr.submits), "count"},
		"remoting.vec_per_inv":          {per(pr.vec), "count"},
		"remoting.bytes_per_inv":        {per(pr.bytes), "B"},
		"remoting.call_host_us":         {pr.calls.mean() / 1e3, "us"},
		"remoting.call_p50_us":          {p50.Value / 1e3, "us"},
		"remoting.call_p99_us":          {p99.Value / 1e3, "us"},
		"guest.forwarded_per_inv":       {per(int64(g.Forwarded())), "count"},
		"guest.localized_per_inv":       {per(int64(g.Localized)), "count"},
		"guest.batches_per_inv":         {per(int64(g.Batches)), "count"},
		"guest.self_us_per_inv":         {float64(pr.runNs-pr.callRunNs) / 1e3 / inv, "us"},
		"apiserver.calls_per_inv":       {per(r.m.apiCalls), "count"},
		"apiserver.kernels_per_inv":     {per(r.m.apiKernels), "count"},
		"gpu.busy_s":                    {r.m.gpuBusy, "vs"},
		"gpuserver.queue_p50_s":         {median(&r.m.queue).Value, "vs"},
		"gpuserver.queue_tail_s":        {tail(&r.m.queue).Value, "vs"},
		"faas.download_p50_s":           {median(&r.m.download).Value, "vs"},
		"faas.exec_p50_s":               {median(&r.m.exec).Value, "vs"},
		"modelcache.host_hit_pct":       {hitPct, "%"},
		"modelcache.evictions":          {float64(r.m.cacheEvictions), "count"},
		"store.writes_per_inv":          {per(pr.storeWrites), "count"},
		"store.lists_per_inv":           {per(pr.storeLists), "count"},
		"store.list_objs_per_call":      {ratio(pr.storeListObjs, pr.storeLists), "count"},
		"store.list_host_us":            {ratio(pr.storeListNs, pr.storeLists) / 1e3, "us"},
		"store.watch_events_per_inv":    {per(r.m.watchEvents), "count"},
		"store.conflicts":               {float64(r.m.conflicts), "count"},
		"controller.reconciles_per_inv": {per(r.m.reconciles), "count"},
		"controller.requeues":           {float64(r.m.requeues), "count"},
		"runtime.gc_cpu_pct":            {100 * res.rt.gcCPU / res.rt.totalCPU, "%"},
		"runtime.gc_cycles_per_inv":     {float64(res.rt.gcCycles) / float64(res.inv), "count"},
	}
	fmt.Printf("workload %s traced: %d invocations, %d round trips, %d sim dispatches, %d store lists, %d spans\n",
		res.w.name, r.inv, pr.roundtrips, dispatches, pr.storeLists, len(pr.spans))
	fmt.Printf("  untraced %d invocations in %.3f host s; tracing overhead %.1f%%\n",
		res.inv, res.timed.Seconds(), ms["trace.overhead_pct"].Value)
	fmt.Printf("  untraced host call latency ns: %v, %v\n", p50, p99)
	fmt.Printf("  queue delay s: %v, %v\n", median(&r.m.queue), tail(&r.m.queue))
	printMetrics(ms)
	return ms
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// writeSpans writes the traced run's spans, one per line, to
// <dir>/spans-<workload>.tsv.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, "spans-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tinvocation\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Inv, s.Name, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}
