package main

import (
	"fmt"
	"math/rand"
	"time"

	"dgsf/internal/controller"
	"dgsf/internal/cuda"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// fleet-flood: the control plane at scale. 120 one-GPU servers with
// agents, the placement controller over a remote store handle, the reclaim
// controller and the host-tier model cache, flooded with trivial one-kernel
// functions at zero CUDA and library cost under open-loop exponential
// arrivals (5 ms mean). No fault plan: chaos has its own gate. The store,
// the controllers and the Go GC dominate the host work; the guest and API
// servers make about four calls per invocation.
const (
	fleetServers     = 120
	fleetInvocations = 1800
	fleetMeanGap     = 5 * time.Millisecond
	fleetSyncPeriod  = 200 * time.Millisecond // agent status and staging sync
)

func fleetFlood() workload {
	return workload{name: "fleet-flood", setup: fleetSetup, round: fleetRound}
}

// fleetFunction is one trivial profile: a host-cacheable model download,
// one kernel, a synchronize.
func fleetFunction(name string, kernel time.Duration) *faas.Function {
	return &faas.Function{
		Name:          name,
		GPUMem:        1 << 30,
		DownloadBytes: 10e6,
		ModelDLBytes:  8e6,
		Run: func(p *sim.Proc, api gen.API) error {
			fns, err := api.RegisterKernels(p, []string{"work"})
			if err != nil {
				return err
			}
			if err := api.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: kernel}); err != nil {
				return err
			}
			return api.DeviceSynchronize(p)
		},
	}
}

// fleetDeployment is a booted fleet.
type fleetDeployment struct {
	st       *store.Store
	reg      *metrics.Registry
	backend  *faas.FleetBackend
	machines []*gpuserver.GPUServer
	agents   []*gpuserver.Agent
	ctrls    []*controller.Controller
}

// fleetBoot brings up the machines, their agents, the store service and
// both controllers. Every store consumer gets its own handle through tap.
func fleetBoot(e *sim.Engine, p *sim.Proc, pr *probe) (*fleetDeployment, error) {
	tap := func(st store.Interface) store.Interface {
		if pr == nil {
			return st
		}
		return &storeTap{in: st, pr: pr}
	}
	d := &fleetDeployment{reg: metrics.NewRegistry()}
	d.st = store.New(e, d.reg)
	env := faas.OpenFaaSEnv()
	env.Download.Latency = 0
	env.Download.JitterFrac = 0
	d.backend = faas.NewFleet(e, tap(d.st), faas.FleetConfig{Env: env, Registry: d.reg})
	if pr != nil {
		d.backend.DialHook = pr.dialHook
	}
	for i := 0; i < fleetServers; i++ {
		cfg := gpuserver.DefaultConfig()
		cfg.GPUs, cfg.ServersPerGPU = 1, 1
		cfg.PoolHandles = false
		cfg.CUDACosts = cuda.Costs{}
		cfg.LibCosts.DNNCreateTime = 0
		cfg.LibCosts.BLASCreateTime = 0
		cfg.GPUConfig = func(i int) gpu.Config {
			c := gpu.V100Config(i)
			c.CopyLat, c.KernelLat = 0, 0
			return c
		}
		cfg.Cache.Enable = true
		cfg.Cache.HostBudget = 1 << 30
		cfg.Cache.DeviceBudget = -1
		gs := gpuserver.New(e, cfg)
		gs.Start(p)
		d.machines = append(d.machines, gs)
		name := fmt.Sprintf("gpu-%03d", i)
		d.backend.AddServer(name, gs)
		agent := gpuserver.NewAgent(gs, tap(d.st), name, gpuserver.AgentConfig{
			SyncPeriod:  fleetSyncPeriod,
			StageBudget: 20e6, // about two staged models before reclaim bites
		})
		d.agents = append(d.agents, agent)
		p.SpawnDaemon("agent-"+name, agent.Run)
	}
	p.Sleep(250 * time.Millisecond) // first agent sync: the fleet is visible in the store

	l := remoting.NewListener(e)
	p.SpawnDaemon("store-serve", func(p *sim.Proc) { store.Serve(p, d.st, l) })
	remote := store.NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{RTT: 100 * time.Microsecond}))
	placement := faas.NewPlacementController(tap(remote), faas.PlacementConfig{
		Resync:   100 * time.Millisecond,
		Registry: d.reg,
	})
	reclaim := faas.NewReclaimController(tap(d.st), faas.ReclaimConfig{Resync: 200 * time.Millisecond, Registry: d.reg})
	d.ctrls = []*controller.Controller{placement, reclaim}
	// Daemons: the deployment ends when the root process does, whatever
	// state a controller's loop is in.
	p.SpawnDaemon("placement", placement.Run)
	p.SpawnDaemon("reclaim", reclaim.Run)
	if err := d.backend.Run(p); err != nil {
		return nil, fmt.Errorf("fleet backend: %w", err)
	}
	return d, nil
}

// stop stops the controllers and agents and runs the simulation on until
// every agent has left its sync loop and released its store watch. A
// process that sim.Engine.Stop kills instead runs its deferred cleanup on
// its own goroutine, concurrently with the other killed processes', and
// the agents' cleanups all edit the store's watcher list.
func (d *fleetDeployment) stop(p *sim.Proc) {
	for _, c := range d.ctrls {
		c.Stop()
	}
	for _, a := range d.agents {
		a.Stop()
	}
	p.Sleep(fleetSyncPeriod + time.Millisecond)
}

func fleetSetup(seed int64) (boot, error) {
	c := startBoot()
	var dur boot
	var err error
	e := sim.NewEngine(seed)
	e.Run("fleet-setup", func(p *sim.Proc) {
		var d *fleetDeployment
		d, err = fleetBoot(e, p, nil)
		dur = c.stop()
		if d != nil {
			d.stop(p)
		}
	})
	e.Stop()
	return dur, err
}

func fleetRound(seed int64, pr *probe, _ time.Duration) (*round, error) {
	rng := rand.New(rand.NewSource(seed))
	var profiles []*faas.Function
	for _, f := range []*faas.Function{
		fleetFunction("detect", 150*time.Millisecond),
		fleetFunction("classify", 100*time.Millisecond),
		fleetFunction("embed", 250*time.Millisecond),
		fleetFunction("rank", 80*time.Millisecond),
	} {
		f.Run = pr.wrapRun(f.Run)
		profiles = append(profiles, f)
	}
	fns := blocks(rng, profiles, fleetInvocations/len(profiles))
	gaps := expGaps(rng, len(fns), fleetMeanGap)

	r := &round{}
	var err error
	c := startBoot()
	e := sim.NewEngine(seed)
	e.SetTimeLimit(time.Hour)
	pr.trace(e, true)
	e.Run("fleet-flood", func(p *sim.Proc) {
		var d *fleetDeployment
		d, err = fleetBoot(e, p, pr)
		if err != nil {
			return
		}
		r.setups = append(r.setups, c.stop())
		settle()
		rt0 := readRuntime()
		t1 := time.Now()
		start := p.Now()
		for i, fn := range fns {
			if i > 0 {
				p.Sleep(gaps[i])
			}
			d.backend.Submit(p, fn)
		}
		d.backend.Drain(p)
		r.timed += time.Since(t1)
		r.runtime = r.runtime.add(readRuntime().sub(rt0))
		end := p.Now()
		d.stop(p)

		r.addInvocations(d.backend.Invocations())
		r.addServers(d.machines, start, end)
		sessions, _, lerr := d.st.List(p, store.KindSession)
		if lerr != nil {
			r.gate("listing sessions: %v", lerr)
		}
		done := 0
		for _, res := range sessions {
			if s := res.(*store.Session); s.Status.Phase == store.PhaseDone {
				done++
			} else {
				r.gate("session %s ended %s, not Done", s.Meta().Name, s.Status.Phase)
			}
		}
		if done != len(fns) {
			r.gate("%d of %d sessions reached Done", done, len(fns))
		}
		r.m.watchEvents = d.reg.Get("store_watch_events_total")
		r.m.conflicts = d.reg.Get("store_conflicts_total")
		for _, c := range []string{"placement", "reclaim"} {
			r.m.reconciles += d.reg.Get("ctrl_" + c + "_reconciles_total")
			r.m.requeues += d.reg.Get("ctrl_" + c + "_requeues_total")
		}
	})
	e.SetTrace(nil)
	e.Stop()
	if err != nil {
		return nil, err
	}
	r.checkCalls(pr)
	return r, nil
}
