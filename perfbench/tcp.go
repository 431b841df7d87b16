package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// tcp-loopback: the real wire. An API server on an open-mode server engine
// sits behind remoting.ServeConn on a loopback socket; one guest client, on
// its own open engine, dials remoting.DialTCP and runs the six workloads
// back to back at the backend's guest tier, as a closed loop over one
// connection, for the whole time budget. Framing, syscalls, gen encode and
// decode and apiserver dispatch do the host work; the gpuserver monitor,
// faas and the store are bypassed.
//
// The client gets its own engine because a blocking socket round trip holds
// its engine's only running slot: a client on the server's engine
// deadlocks. An open engine's virtual clock races ahead of socket traffic,
// so the virtual-time metrics come from a replica: the same sequence, two
// cycles, through the faas backend and the simulated transport on a
// one-GPU server in a run-mode engine. The replica's guests must make the
// same calls per cycle as the wire's.
const tcpReplicaCycles = 2

func tcpLoopback() workload {
	return workload{name: "tcp-loopback", setup: tcpSetup, round: tcpRound}
}

// tcpOrder is the seed's order of the six workloads within a cycle.
func tcpOrder(seed int64) []*workloads.Spec {
	return blocks(rand.New(rand.NewSource(seed)), workloads.All(), 1)
}

// wire is a booted server, a connected client and their engines.
type wire struct {
	srvEngine, cliEngine *sim.Engine
	srv                  *apiserver.Server
	ln                   net.Listener
	conn                 remoting.AsyncCaller
	served               chan (<-chan struct{}) // the accepted connection's done channel
}

// tcpBoot starts the server engine, its API server and listener, and dials
// the client's connection (the protocol hello happens at dial). pr, if not
// nil, traces both engines from their first event.
func tcpBoot(seed int64, pr *probe) (*wire, error) {
	w := &wire{srvEngine: sim.NewOpenEngine(seed), cliEngine: sim.NewOpenEngine(seed), served: make(chan (<-chan struct{}), 1)}
	if pr != nil {
		pr.trace(w.cliEngine, true)
		pr.trace(w.srvEngine, false)
	}
	devs := []*gpu.Device{gpu.New(w.srvEngine, gpu.V100Config(0))}
	w.srv = apiserver.NewServer(w.srvEngine, cuda.NewRuntime(w.srvEngine, devs, cuda.DefaultCosts()), apiserver.Config{
		PoolHandles: true,
		CUDACosts:   cuda.DefaultCosts(),
		LibCosts:    cudalibs.DefaultCosts(),
	})
	var perr error
	<-w.srvEngine.Inject("prewarm", func(p *sim.Proc) { perr = w.srv.Prewarm(p) })
	if perr != nil {
		w.srvEngine.Stop()
		return nil, fmt.Errorf("prewarm: %w", perr)
	}
	w.srvEngine.InjectDaemon("apiserver", w.srv.Run)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srvEngine.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	w.ln = ln
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(w.served)
			return
		}
		w.served <- remoting.ServeConn(w.srvEngine, c, w.srv.Inbox)
	}()
	w.conn, err = remoting.DialTCP(ln.Addr().String())
	if err != nil {
		w.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return w, nil
}

// close tears the wire down and waits for the server side of the
// connection to finish.
func (w *wire) close() {
	if w.conn != nil {
		w.conn.Close()
	}
	_ = w.ln.Close()
	if done, ok := <-w.served; ok {
		<-done
	}
	w.cliEngine.Stop()
	w.srvEngine.Stop()
}

// serverStats reads the API server's counters on its own engine.
func (w *wire) serverStats() apiserver.Stats {
	var st apiserver.Stats
	<-w.srvEngine.Inject("stats", func(*sim.Proc) { st = w.srv.Stats() })
	return st
}

func tcpSetup(seed int64) (boot, error) {
	c := startBoot()
	w, err := tcpBoot(seed, nil)
	d := c.stop()
	if err != nil {
		return boot{}, err
	}
	w.close()
	return d, nil
}

// tcpRound runs whole cycles of the seed's order over one connection until
// budget has passed (at least one cycle).
func tcpRound(seed int64, pr *probe, budget time.Duration) (*round, error) {
	order := tcpOrder(seed)
	r, replica, err := tcpReplica(seed, order)
	if err != nil {
		return nil, err
	}

	c := startBoot()
	w, err := tcpBoot(seed, pr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r.setups = []boot{c.stop()}
	conn, err := pr.wrapConn(w.conn)
	if err != nil {
		return nil, err
	}
	opt := faas.OpenFaaSEnv().GuestOpt

	settle()
	rt0 := readRuntime()
	t1 := time.Now()
	cycles, inv := 0, 0
	for cycles == 0 || time.Since(t1) < budget {
		for _, spec := range order {
			inv++
			run := pr.wrapRun(spec.Function().Run)
			var err error
			<-w.cliEngine.Inject(fmt.Sprintf("inv-%d", inv), func(p *sim.Proc) {
				lib := guest.New(conn, opt)
				err = lib.Hello(p, spec.Name, spec.MemLimit)
				if err == nil {
					err = run(p, lib)
					lib.FlushBatch(p)
					err = errors.Join(err, lib.Bye(p))
				}
			})
			if err != nil {
				r.failed++
				r.gate("invocation %s over TCP failed: %v", spec.Name, err)
			}
		}
		cycles++
	}
	r.timed = time.Since(t1)
	r.runtime = readRuntime().sub(rt0)
	r.inv = inv

	r.addAPIServer(w.serverStats())
	r.checkCalls(pr)
	wg, rg := r.m.guest, replica
	for _, c := range []struct {
		name       string
		wire, repl int
	}{
		{"forwarded", wg.Forwarded(), rg.Forwarded()},
		{"localized", wg.Localized, rg.Localized},
		{"batches", wg.Batches, rg.Batches},
		{"roundtrips", wg.Roundtrips(), rg.Roundtrips()},
	} {
		if c.wire*tcpReplicaCycles != c.repl*cycles {
			r.gate("%s per cycle: %d cycles on the wire made %d, %d in the replica made %d", c.name, cycles, c.wire, tcpReplicaCycles, c.repl)
		}
	}
	return r, nil
}

// tcpReplica runs tcpReplicaCycles cycles of order as a closed loop through
// the simulated stack and returns the modelled round and the replica's
// summed guest statistics.
func tcpReplica(seed int64, order []*workloads.Spec) (*round, guest.Stats, error) {
	pr := newProbe(false)
	r := &round{}
	e := sim.NewEngine(seed)
	e.Run("tcp-replica", func(p *sim.Proc) {
		cfg := gpuserver.DefaultConfig()
		cfg.GPUs = 1
		gs := gpuserver.New(e, cfg)
		gs.Start(p)
		b := faas.NewBackend(e, gs, faas.OpenFaaSEnv())
		b.DialHook = pr.dialHook
		start := p.Now()
		for c := 0; c < tcpReplicaCycles; c++ {
			for _, spec := range order {
				f := spec.Function()
				f.Run = pr.wrapRun(f.Run)
				b.Invoke(p, f)
			}
		}
		r.addInvocations(b.Invocations())
		r.addServers([]*gpuserver.GPUServer{gs}, start, p.Now())
		p.Sleep(time.Millisecond) // every process starts, so Stop finds it parked
	})
	e.Stop()
	r.checkCalls(pr)
	if len(r.gates) > 0 {
		return nil, guest.Stats{}, fmt.Errorf("tcp-loopback replica: %v", r.gates)
	}
	m := r.m
	return &round{m: model{
		e2e: m.e2e, queue: m.queue, download: m.download, exec: m.exec,
		makespan: m.makespan, utilSum: m.utilSum, gpuBusy: m.gpuBusy,
	}}, m.guest, nil
}
