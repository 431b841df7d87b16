package main

import (
	"fmt"
	"strings"
	"time"

	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// probe measures one round from outside the program, at boundaries the code
// already exposes: the guest transport (faas DialHook, or the TCP caller),
// the store.Interface handed to each control-plane consumer, the sim
// engine's trace hook and the guest library each invocation runs against.
//
// Untraced, a probe only counts calls and times each round trip (the
// remoting.call_p50_us / call_p99_us metrics). Traced, it also attributes
// host time to processes through the engine trace and records spans.
type probe struct {
	traced bool
	start  time.Time // origin of span timestamps

	// remoting: guest transport calls.
	roundtrips, submits, vec int64
	bytes                    int64     // request + reply bytes, bulk included
	calls                    histogram // host latency of every round trip, ns
	callRunNs                int64     // host time invocation procs ran inside calls (traced)

	// store: calls through the wrapped store.Interface handles.
	storeWrites, storeLists, storeListObjs int64
	storeListNs                            int64

	// sim: engine trace events (traced).
	tracers []*tracer
	procs   map[string]*procClock // invocation processes by name
	cur     *procClock            // invocation process holding the engine

	// guest: every library an invocation ran against, and the invocations'
	// own host time (traced).
	libs   []*guest.Lib
	runNs  int64
	spans  []span
	nextID int32
}

// procClock accumulates the host time one invocation process holds an
// engine, from the engine's run/block/exit trace events.
type procClock struct {
	inv     int32 // invocation span id
	running bool
	since   time.Time
	total   time.Duration
}

// span is one traced interval in host time. Spans of one invocation share
// Inv; Parent is the enclosing span (0: none).
type span struct {
	Name       string
	Start, End time.Duration // since probe start
	ID, Parent int32
	Inv        int32
}

func newProbe(traced bool) *probe {
	return &probe{traced: traced, start: time.Now(), procs: make(map[string]*procClock)}
}

// tracer counts one engine's dispatches and blocks through
// sim.Engine.SetTrace. The engine calls it with its lock held, so calls for
// one engine never overlap. With pr set it also attributes host time to the
// probe's invocation processes; only one engine per probe may do that.
type tracer struct {
	dispatches, blocks int64
	pr                 *probe
}

// trace installs a tracer on e when the probe is traced. attribute selects
// the engine whose invocation processes get host time attributed.
func (pr *probe) trace(e *sim.Engine, attribute bool) {
	if !pr.traced {
		return
	}
	t := &tracer{}
	if attribute {
		t.pr = pr
	}
	pr.tracers = append(pr.tracers, t)
	e.SetTrace(t.event)
}

func (t *tracer) event(_ time.Duration, proc, event string) {
	switch {
	case event == "run":
		t.dispatches++
		if t.pr == nil {
			return
		}
		if c := t.pr.procs[proc]; c != nil {
			t.pr.cur = c
			c.running, c.since = true, time.Now()
		}
	case event == "exit" || strings.HasPrefix(event, "block:"):
		if event != "exit" {
			t.blocks++
		}
		if t.pr == nil {
			return
		}
		if c := t.pr.cur; c != nil {
			c.total += time.Since(c.since)
			c.running = false
			t.pr.cur = nil
		}
	}
}

// simCounts sums dispatches and blocks over the probe's engines.
func (pr *probe) simCounts() (dispatches, blocks int64) {
	for _, t := range pr.tracers {
		dispatches += t.dispatches
		blocks += t.blocks
	}
	return dispatches, blocks
}

// ran returns the host time the process has held its engine so far.
func (c *procClock) ran(now time.Time) time.Duration {
	if c.running {
		return c.total + now.Sub(c.since)
	}
	return c.total
}

// wrapRun returns run with the invocation boundary instrumented: it
// keeps the guest library for the correctness gates and, traced, records
// the invocation's span and its own host time.
func (pr *probe) wrapRun(run func(p *sim.Proc, api gen.API) error) func(p *sim.Proc, api gen.API) error {
	return func(p *sim.Proc, api gen.API) error {
		if lib, ok := api.(*guest.Lib); ok {
			pr.libs = append(pr.libs, lib)
		}
		if !pr.traced {
			return run(p, api)
		}
		pr.nextID++
		id := pr.nextID
		// p is running but was dispatched before it was registered, so its
		// clock starts here.
		c := &procClock{inv: id, running: true, since: time.Now()}
		pr.procs[p.Name()] = c
		pr.cur = c
		t0 := time.Now()
		err := run(p, api)
		t1 := time.Now()
		pr.runNs += int64(c.ran(t1))
		pr.spans = append(pr.spans, span{Name: "guest.run:" + p.Name(), Start: t0.Sub(pr.start), End: t1.Sub(pr.start), ID: id, Inv: id})
		delete(pr.procs, p.Name())
		if pr.cur == c {
			pr.cur = nil
		}
		return err
	}
}

// call records one transport call made by process p between t0 and now.
func (pr *probe) call(p *sim.Proc, name string, t0 time.Time, c0 time.Duration, bytes int, roundtrip bool) {
	t1 := time.Now()
	pr.bytes += int64(bytes)
	if roundtrip {
		pr.roundtrips++
		pr.calls.add(int64(t1.Sub(t0)))
	}
	if !pr.traced {
		return
	}
	var inv int32
	if c := pr.procs[p.Name()]; c != nil {
		inv = c.inv
		pr.callRunNs += int64(c.ran(t1) - c0)
	}
	pr.nextID++
	pr.spans = append(pr.spans, span{Name: name, Start: t0.Sub(pr.start), End: t1.Sub(pr.start), ID: pr.nextID, Parent: inv, Inv: inv})
}

// clock returns the current host time and, traced, how long p has held
// its engine so far (the base for its call's self-time share).
func (pr *probe) clock(p *sim.Proc) (time.Time, time.Duration) {
	t := time.Now()
	if pr.traced {
		if c := pr.procs[p.Name()]; c != nil {
			return t, c.ran(t)
		}
	}
	return t, 0
}

// --- guest transport wrappers ---

// tapConn wraps a guest transport. The variants below forward exactly the
// optional interfaces the wrapped transport implements: dropping VecCaller
// would silently move gen's bulk calls onto the inline path, and dropping
// DeadlineCaller, Faultable or Downgrader would change what recovery and
// fault injection can reach.
type tapConn struct {
	in remoting.AsyncCaller
	pr *probe
}

func (c *tapConn) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	t0, c0 := c.pr.clock(p)
	resp, err := c.in.Roundtrip(p, req, reqData)
	c.pr.call(p, "remoting.roundtrip", t0, c0, len(req)+len(resp), true)
	return resp, err
}

func (c *tapConn) Submit(p *sim.Proc, req []byte, reqData int64) error {
	t0, c0 := c.pr.clock(p)
	err := c.in.Submit(p, req, reqData)
	c.pr.submits++
	c.pr.call(p, "remoting.submit", t0, c0, len(req), false)
	return err
}

func (c *tapConn) Close() { c.in.Close() }

// vecConn adds the v2 bulk lane and per-call deadlines (both transports).
type vecConn struct {
	*tapConn
	vec remoting.VecCaller
	dl  remoting.DeadlineCaller
}

func (c *vecConn) ProtoVersion() int { return c.vec.ProtoVersion() }

func (c *vecConn) RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) ([]byte, []byte, error) {
	t0, c0 := c.pr.clock(p)
	resp, respBulk, err := c.vec.RoundtripVec(p, req, reqBulk, respDst)
	c.pr.vec++
	c.pr.call(p, "remoting.roundtrip_vec", t0, c0, len(req)+len(reqBulk)+len(resp)+len(respBulk), true)
	return resp, respBulk, err
}

func (c *vecConn) RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d time.Duration) ([]byte, error) {
	t0, c0 := c.pr.clock(p)
	resp, err := c.dl.RoundtripTimeout(p, req, reqData, d)
	c.pr.call(p, "remoting.roundtrip", t0, c0, len(req)+len(resp), true)
	return resp, err
}

// simConn adds the simulated transport's fault and downgrade hooks.
type simConn struct {
	*vecConn
	f  remoting.Faultable
	dg remoting.Downgrader
}

func (c *simConn) Break()                   { c.f.Break() }
func (c *simConn) StallFor(d time.Duration) { c.f.StallFor(d) }
func (c *simConn) CorruptNext()             { c.f.CorruptNext() }
func (c *simConn) ForceVersion(v int)       { c.dg.ForceVersion(v) }

// wrapConn returns conn instrumented by pr, with the same optional
// interfaces. A transport of another shape is an error: the probe would
// otherwise change which code paths run.
func (pr *probe) wrapConn(conn remoting.AsyncCaller) (remoting.AsyncCaller, error) {
	vec, okV := conn.(remoting.VecCaller)
	dl, okD := conn.(remoting.DeadlineCaller)
	f, okF := conn.(remoting.Faultable)
	dg, okG := conn.(remoting.Downgrader)
	switch {
	case okV && okD && okF && okG:
		return &simConn{vecConn: &vecConn{tapConn: &tapConn{conn, pr}, vec: vec, dl: dl}, f: f, dg: dg}, nil
	case okV && okD && !okF && !okG:
		return &vecConn{tapConn: &tapConn{conn, pr}, vec: vec, dl: dl}, nil
	}
	return nil, fmt.Errorf("perfbench: transport %T has an optional-interface set the probe cannot mirror", conn)
}

// dialHook adapts wrapConn to faas DialHook; a shape error panics inside
// the simulation, where the hook has no error return.
func (pr *probe) dialHook(_ *sim.Proc, conn remoting.AsyncCaller) remoting.AsyncCaller {
	w, err := pr.wrapConn(conn)
	if err != nil {
		panic(err)
	}
	return w
}

// --- store wrapper ---

// storeTap counts and times the calls one consumer makes through its store
// handle. store.Interface has no optional interfaces to forward.
type storeTap struct {
	in store.Interface
	pr *probe
}

func (s *storeTap) span(p *sim.Proc, name string, t0 time.Time) {
	if !s.pr.traced {
		return
	}
	var inv int32
	if c := s.pr.procs[p.Name()]; c != nil {
		inv = c.inv
	}
	s.pr.nextID++
	s.pr.spans = append(s.pr.spans, span{Name: name, Start: t0.Sub(s.pr.start), End: time.Since(s.pr.start), ID: s.pr.nextID, Parent: inv, Inv: inv})
}

func (s *storeTap) Get(p *sim.Proc, kind store.Kind, name string) (store.Resource, error) {
	t0 := time.Now()
	r, err := s.in.Get(p, kind, name)
	s.span(p, "store.get", t0)
	return r, err
}

func (s *storeTap) List(p *sim.Proc, kind store.Kind) ([]store.Resource, uint64, error) {
	t0 := time.Now()
	rs, rv, err := s.in.List(p, kind)
	s.pr.storeListNs += int64(time.Since(t0))
	s.pr.storeLists++
	s.pr.storeListObjs += int64(len(rs))
	s.span(p, "store.list", t0)
	return rs, rv, err
}

func (s *storeTap) write(p *sim.Proc, name string, t0 time.Time) {
	s.pr.storeWrites++
	s.span(p, name, t0)
}

func (s *storeTap) Create(p *sim.Proc, r store.Resource) (store.Resource, error) {
	t0 := time.Now()
	out, err := s.in.Create(p, r)
	s.write(p, "store.create", t0)
	return out, err
}

func (s *storeTap) Update(p *sim.Proc, r store.Resource) (store.Resource, error) {
	t0 := time.Now()
	out, err := s.in.Update(p, r)
	s.write(p, "store.update", t0)
	return out, err
}

func (s *storeTap) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	t0 := time.Now()
	out, err := s.in.UpdateStatus(p, r)
	s.write(p, "store.update_status", t0)
	return out, err
}

func (s *storeTap) UpdateStatusAsync(p *sim.Proc, r store.Resource) error {
	t0 := time.Now()
	err := s.in.UpdateStatusAsync(p, r)
	s.write(p, "store.update_status_async", t0)
	return err
}

func (s *storeTap) Delete(p *sim.Proc, kind store.Kind, name string, rv uint64) error {
	t0 := time.Now()
	err := s.in.Delete(p, kind, name, rv)
	s.write(p, "store.delete", t0)
	return err
}

func (s *storeTap) Watch(p *sim.Proc, kind store.Kind, fromRV uint64) (*store.Watch, error) {
	return s.in.Watch(p, kind, fromRV)
}

// guestTotals sums the call dispositions of every library the round used.
func (pr *probe) guestTotals() guest.Stats {
	var t guest.Stats
	for _, l := range pr.libs {
		s := l.Stats()
		t.Total += s.Total
		t.Remoted += s.Remoted
		t.Batched += s.Batched
		t.Localized += s.Localized
		t.Async += s.Async
		t.Batches += s.Batches
		t.Fences += s.Fences
	}
	return t
}
