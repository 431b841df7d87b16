package main

import (
	"fmt"
	"strings"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/metrics"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup boots a deployment, returns the wall and CPU time until it
	// could take its first submit, and tears it down.
	setup func(seed int64) (boot, error)
	// round runs the seed's inputs once under pr. budget bounds workloads
	// whose round is time-bounded (tcp-loopback); the others run fixed
	// inputs and ignore it.
	round func(seed int64, pr *probe, budget time.Duration) (*round, error)
}

// round is one pass over a workload's inputs.
type round struct {
	setups  []boot        // start to first submit, per deployment
	timed   time.Duration // host: first submit to last completion
	runtime runtimeSample // Go runtime deltas over the timed phases
	inv     int
	failed  int
	gates   []string // failed correctness checks
	m       model
}

// model is what the modelled system did in a round, in virtual time; it is
// exact for a given seed.
type model struct {
	e2e, queue, download, exec metrics.Series // per invocation
	makespan                   metrics.Series // per deployment
	utilSum                    float64        // per-deployment utilization, percent, summed
	gpuBusy                    float64        // device compute seconds, all devices

	guest      guest.Stats // summed over every invocation's library
	apiCalls   int64
	apiKernels int64

	cacheHits, cacheMisses, cacheEvictions int64
	watchEvents, conflicts                 int64
	reconciles, requeues                   int64
}

func (r *round) gate(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// addInvocations folds a deployment's finished invocations into the model
// and counts failures.
func (r *round) addInvocations(invs []*faas.Invocation) {
	for _, inv := range invs {
		r.inv++
		if inv.Err != nil {
			r.failed++
			r.gate("invocation %s-%d failed: %v", inv.Fn.Name, inv.Seq, inv.Err)
			continue
		}
		r.m.e2e.Add(inv.E2E())
		r.m.queue.Add(inv.QueueDelay)
		r.m.download.Add(inv.DownloadDone - inv.SubmittedAt)
		r.m.exec.Add(inv.Done - inv.Granted)
	}
}

// addServers folds a GPU server's device, API-server and cache counters
// into the model. Utilization is the mean over devices of the sampled
// utilization between from and to.
func (r *round) addServers(servers []*gpuserver.GPUServer, from, to time.Duration) {
	var util float64
	var n int
	for _, gs := range servers {
		for _, d := range gs.Devices() {
			r.m.gpuBusy += d.ComputeBusy().Seconds()
		}
		for _, s := range gs.Samplers() {
			util += s.MeanUtil(from, to)
			n++
		}
		for _, srv := range gs.Servers() {
			r.addAPIServer(srv.Stats())
		}
		if c := gs.Cache(); c != nil {
			st := c.Host().Stats()
			r.m.cacheHits += int64(st.Hits)
			r.m.cacheMisses += int64(st.Misses)
			r.m.cacheEvictions += int64(st.Evictions)
		}
	}
	r.m.utilSum += util / float64(n)
	r.m.makespan.Add(to - from)
}

func (r *round) addAPIServer(st apiserver.Stats) {
	r.m.apiCalls += int64(st.CallsHandled)
	r.m.apiKernels += int64(st.Kernels)
}

// checkCalls applies the call-conservation gates: every call the guests
// forwarded reached an API server, and the transport carried exactly the
// round trips the guests made.
func (r *round) checkCalls(pr *probe) {
	g := pr.guestTotals()
	r.m.guest = g
	if int64(g.Forwarded()) != r.m.apiCalls {
		r.gate("guest forwarded %d calls but API servers handled %d", g.Forwarded(), r.m.apiCalls)
	}
	if int64(g.Roundtrips()) != pr.roundtrips {
		r.gate("guest made %d round trips but the transport carried %d", g.Roundtrips(), pr.roundtrips)
	}
	if len(pr.libs) != r.inv {
		r.gate("%d invocations ran against %d guest libraries", r.inv, len(pr.libs))
	}
}

// fingerprint renders everything in a round that must not depend on host
// timing or on tracing: the virtual-time metrics and the call and byte
// counts. perInv divides counts by the invocation count, for rounds whose
// length is time-bounded.
func (r *round) fingerprint(pr *probe, perInv bool) string {
	div := 1.0
	if perInv {
		div = float64(r.inv)
	}
	var b strings.Builder
	v := virtual(r)
	for _, k := range []string{"v_e2e_p50_s", "v_e2e_tail_s", "v_makespan_s", "v_gpu_util_pct"} {
		fmt.Fprintf(&b, "%s=%.17g ", k, v[k])
	}
	g := r.m.guest
	for _, c := range []struct {
		name string
		n    float64
	}{
		{"forwarded", float64(g.Forwarded())}, {"localized", float64(g.Localized)},
		{"batches", float64(g.Batches)}, {"roundtrips", float64(pr.roundtrips)},
		{"submits", float64(pr.submits)}, {"vec", float64(pr.vec)}, {"bytes", float64(pr.bytes)},
		{"api_calls", float64(r.m.apiCalls)}, {"kernels", float64(r.m.apiKernels)},
		{"store_writes", float64(pr.storeWrites)}, {"store_lists", float64(pr.storeLists)},
	} {
		fmt.Fprintf(&b, "%s=%.17g ", c.name, c.n/div)
	}
	return b.String()
}

// virtual computes the virtual-time end-to-end metrics of a round.
func virtual(r *round) map[string]float64 {
	return map[string]float64{
		"v_e2e_p50_s":    median(&r.m.e2e).Value,
		"v_e2e_tail_s":   tail(&r.m.e2e).Value,
		"v_makespan_s":   r.m.makespan.Mean().Seconds(),
		"v_gpu_util_pct": r.m.utilSum / float64(r.m.makespan.N()),
	}
}
