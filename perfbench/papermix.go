package main

import (
	"math/rand"
	"time"

	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// paper-mix: the paper's §VIII-D high-load run. Every one of the six
// workloads arrives in a seeded order under open-loop exponential arrivals
// with a 2 s mean, on one GPU server with 4 GPUs and 2 API servers per GPU
// under best fit, OpenFaaS environment, model cache off, simulated
// transport. The sim engine and the guest -> remoting -> apiserver -> gpu
// path do nearly all the host work; store and controllers do none.
//
// A round is paperDeployments independent deployments of paperPerWorkload
// invocations of each workload. Several small deployments instead of one
// large one keep the virtual-time metrics steady across seeds at the same
// host cost: under overload, head-of-line blocking of the 14 GiB workloads
// makes one deployment's median E2E swing with the arrival order.
const (
	paperDeployments = 5
	paperPerWorkload = 3
	paperMeanGap     = 2 * time.Second
)

func paperMix() workload {
	return workload{name: "paper-mix", setup: paperSetup, round: paperRound}
}

// paperBoot brings up the GPU server and the serverless backend.
func paperBoot(e *sim.Engine, p *sim.Proc, pr *probe) (*gpuserver.GPUServer, *faas.Backend) {
	cfg := gpuserver.DefaultConfig()
	cfg.GPUs = 4
	cfg.ServersPerGPU = 2
	cfg.Policy = gpuserver.BestFit
	gs := gpuserver.New(e, cfg)
	gs.Start(p)
	b := faas.NewBackend(e, gs, faas.OpenFaaSEnv())
	if pr != nil {
		b.DialHook = pr.dialHook
	}
	return gs, b
}

func paperSetup(seed int64) (boot, error) {
	c := startBoot()
	var d boot
	e := sim.NewEngine(seed)
	e.Run("paper-mix-setup", func(p *sim.Proc) {
		paperBoot(e, p, nil)
		d = c.stop()
		p.Sleep(time.Millisecond) // every process starts, so Stop finds it parked
	})
	e.Stop()
	return d, nil
}

func paperRound(seed int64, pr *probe, _ time.Duration) (*round, error) {
	r := &round{}
	for k := 0; k < paperDeployments; k++ {
		paperDeployment(seed*paperDeployments+int64(k), pr, r)
	}
	r.checkCalls(pr)
	return r, nil
}

// paperDeployment runs one deployment's inputs, derived from seed.
func paperDeployment(seed int64, pr *probe, r *round) {
	rng := rand.New(rand.NewSource(seed))
	var fns []*faas.Function
	for _, spec := range workloads.All() {
		f := spec.Function()
		f.Run = pr.wrapRun(f.Run)
		fns = append(fns, f)
	}
	fns = blocks(rng, fns, paperPerWorkload)
	gaps := expGaps(rng, len(fns), paperMeanGap)

	c := startBoot()
	e := sim.NewEngine(seed)
	pr.trace(e, true)
	e.Run("paper-mix", func(p *sim.Proc) {
		gs, b := paperBoot(e, p, pr)
		r.setups = append(r.setups, c.stop())
		settle()
		rt0 := readRuntime()
		t1 := time.Now()
		start := p.Now()
		b.SubmitSequence(p, fns, func(i int) time.Duration { return gaps[i] })
		b.Drain(p)
		r.timed += time.Since(t1)
		r.runtime = r.runtime.add(readRuntime().sub(rt0))
		r.addInvocations(b.Invocations())
		r.addServers([]*gpuserver.GPUServer{gs}, start, p.Now())
		p.Sleep(time.Millisecond) // every process starts, so Stop finds it parked
	})
	e.SetTrace(nil)
	e.Stop()
}
