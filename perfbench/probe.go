package main

import (
	"fmt"
	"sync"
	"time"

	"taskvine"
	"taskvine/internal/metrics"
	"taskvine/internal/trace"
)

// probe watches one manager's execution event log. It always tracks the
// few events the workloads wait on (worker registration, library
// readiness, objects landing at a worker), so no workload waits on a
// timer. While a tracer is recording it also stamps task, transfer and
// MiniTask events with wall time and joins them, by task ID, with the
// spans the workload records around its facade calls.
type probe struct {
	tr   *tracer       // nil: signals only
	wake chan struct{} // capacity 1: a coalesced "something changed"

	mu     sync.Mutex
	joined map[string]time.Time // guarded by mu; worker -> registered
	ready  map[string]time.Time // guarded by mu; worker -> library ready
	held   map[string]bool      // guarded by mu; file|worker landed
	tasks  map[int]*taskRec     // guarded by mu
	xfers  map[string]xferRec   // guarded by mu; file|worker in flight
	stages map[string]time.Time // guarded by mu; file|worker materializing
}

// taskRec joins one task's client-side spans with its manager events.
type taskRec struct {
	call0, call1    time.Time // Submit or Invoke entered / returned
	start, end      time.Time // manager TaskStart / TaskEnd
	wait            time.Time // Wait returned the result
	worker          string
	stagedMS, runMS int64
	invoke          bool
}

type xferRec struct {
	t0   time.Time
	kind string
}

func newProbe(m *taskvine.Manager, tr *tracer) *probe {
	p := &probe{
		tr:     tr,
		wake:   make(chan struct{}, 1),
		joined: map[string]time.Time{},
		ready:  map[string]time.Time{},
		held:   map[string]bool{},
		tasks:  map[int]*taskRec{},
		xfers:  map[string]xferRec{},
		stages: map[string]time.Time{},
	}
	m.Trace().Observe(p.observe)
	return p
}

// observe runs synchronously on the manager's event loop, so it only
// stamps and files the event.
func (p *probe) observe(ev trace.Event) {
	key := ev.File + "|" + ev.Worker
	p.mu.Lock()
	switch ev.Kind {
	case trace.WorkerJoined:
		p.joined[ev.Worker] = time.Now()
	case trace.LibraryReady:
		p.ready[ev.Worker] = time.Now()
	case trace.StageEnd, trace.TransferEnd:
		p.held[key] = true
	}
	if p.tr.recording() {
		p.record(ev, key, time.Now())
	}
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// record files one event for the per-layer join. Caller holds p.mu.
func (p *probe) record(ev trace.Event, key string, now time.Time) {
	switch ev.Kind {
	case trace.TaskStart:
		r := p.recLocked(ev.TaskID)
		r.start, r.worker = now, ev.Worker
	case trace.TaskEnd, trace.TaskFailed:
		p.recLocked(ev.TaskID).end = now
	case trace.TransferStart:
		p.xfers[key] = xferRec{now, metrics.SourceKind(ev.Source)}
	case trace.TransferEnd:
		if x, ok := p.xfers[key]; ok {
			p.tr.sample("replica.transfer_ms."+x.kind, ms(now.Sub(x.t0)))
			p.tr.spans.add("transfer:"+x.kind, "replica", ev.Worker, x.t0, now, 0)
		}
		delete(p.xfers, key)
	case trace.TransferFailed:
		delete(p.xfers, key)
	case trace.StageStart:
		p.stages[key] = now
	case trace.StageEnd:
		if t0, ok := p.stages[key]; ok {
			p.tr.sample("worker.minitask_ms", ms(now.Sub(t0)))
			p.tr.spans.add("minitask", "worker", ev.Worker, t0, now, 0)
		}
		delete(p.stages, key)
	}
}

// recLocked returns the record of task id, creating it. The caller holds
// p.mu.
func (p *probe) recLocked(id int) *taskRec {
	r := p.tasks[id]
	if r == nil {
		r = &taskRec{}
		p.tasks[id] = r
	}
	return r
}

// called records the facade span of one Submit or Invoke.
func (p *probe) called(id int, t0, t1 time.Time, invoke bool) {
	if !p.tr.recording() {
		return
	}
	p.mu.Lock()
	r := p.recLocked(id)
	r.call0, r.call1, r.invoke = t0, t1, invoke
	p.mu.Unlock()
}

// waited records the moment Wait handed a result back.
func (p *probe) waited(res *taskvine.Result, t time.Time) {
	if !p.tr.recording() {
		return
	}
	p.mu.Lock()
	r := p.recLocked(res.TaskID)
	r.wait, r.stagedMS, r.runMS = t, res.StagedMS, res.RunMS
	p.mu.Unlock()
}

// flush turns every fully observed task into layer samples and spans,
// and forgets it. Call it when no task is in flight.
func (p *probe) flush() {
	if p.tr == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, r := range p.tasks {
		delete(p.tasks, id)
		if r.call0.IsZero() || r.start.IsZero() || r.end.IsZero() || r.wait.IsZero() {
			continue
		}
		p.tr.taskDone(id, r)
	}
}

// joinedAt returns when the last worker registered.
func (p *probe) joinedAt() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return latestLocked(p.joined)
}

// readyAt returns when the last library instance became ready.
func (p *probe) readyAt() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return latestLocked(p.ready)
}

// latestLocked returns the last of the event stamps in m, a map guarded by
// p.mu, which the caller holds.
func latestLocked(m map[string]time.Time) time.Time {
	var last time.Time
	for _, at := range m {
		if at.After(last) {
			last = at
		}
	}
	return last
}

// hasWorkers is a waitFor predicate: n workers have registered. The
// caller holds p.mu while it runs.
func (p *probe) hasWorkers(n int) func() bool {
	return func() bool { return len(p.joined) >= n }
}

// librariesReady is a waitFor predicate: n library instances ready. The
// caller holds p.mu while it runs.
func (p *probe) librariesReady(n int) func() bool {
	return func() bool { return len(p.ready) >= n }
}

// holds is a waitFor predicate: every file has landed at worker. The
// caller holds p.mu while it runs.
func (p *probe) holds(worker string, files ...string) func() bool {
	return func() bool {
		for _, f := range files {
			if !p.held[f+"|"+worker] {
				return false
			}
		}
		return true
	}
}

// waitFor blocks until pred (evaluated under p.mu) holds, re-checking on
// every observed event.
func (p *probe) waitFor(what string, limit time.Duration, pred func() bool) error {
	deadline := time.NewTimer(limit)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		ok := pred()
		p.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-p.wake:
		case <-deadline.C:
			return fmt.Errorf("timed out after %v waiting for %s", limit, what)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
