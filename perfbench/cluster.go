package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"taskvine"
)

// waitLimit bounds every blocking wait on the system under test, so a
// wedged run fails well inside the run deadline.
const waitLimit = 60 * time.Second

// workerCapacity is each in-process worker's resource vector. Two workers
// of two cores match the two-core reference machine: no more worker
// connections than cores.
var workerCapacity = taskvine.Resources{Cores: 2, Memory: taskvine.GB, Disk: 8 * taskvine.GB}

// workDirs are the directories a worker creates under its WorkDir as it
// starts. The benchmark creates them before a set-up is timed: on the
// reference VM's shared virtual disk one directory creation took anywhere
// from 0.07 to 1.4 ms depending on what the host's other guests were doing,
// which swung a 1 ms set-up threefold from one process to the next. For a
// directory that already exists the worker's own creation is a stat, so
// the worker's start-up is still timed.
var workDirs = []string{"cache", "sandboxes"}

// settleTime is how long a workload idles before it times a set-up, so the
// previous cluster's teardown (connections closing, goroutines exiting)
// does not land inside the set-up.
const settleTime = 20 * time.Millisecond

// prepareWorkers creates the working directories of workers ids of a
// cluster rooted at dir, then waits settleTime: the set-up is timed next.
func prepareWorkers(dir string, ids ...string) error {
	for _, id := range ids {
		for _, d := range workDirs {
			if err := os.MkdirAll(filepath.Join(dir, id, d), 0o755); err != nil {
				return err
			}
		}
	}
	time.Sleep(settleTime)
	return nil
}

// cluster is one manager in its default configuration plus in-process
// workers on loopback, all sharing the manager's metrics registry.
type cluster struct {
	m      *taskvine.Manager
	p      *probe
	dir    string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	n      int
}

func newCluster(e *env, dir string) (*cluster, error) {
	m, err := taskvine.NewManager(taskvine.ManagerConfig{})
	if err != nil {
		return nil, fmt.Errorf("starting manager: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &cluster{m: m, p: newProbe(m, e.tr), dir: dir, ctx: ctx, cancel: cancel}, nil
}

// addWorker starts a worker named id and returns without waiting for it
// to register.
func (c *cluster) addWorker(id string, libs ...*taskvine.Library) error {
	w, err := taskvine.NewWorker(taskvine.WorkerConfig{
		ManagerAddr: c.m.Addr(),
		WorkDir:     filepath.Join(c.dir, id),
		Capacity:    workerCapacity,
		ID:          id,
		Libraries:   libs,
		Metrics:     c.m.Metrics(),
	})
	if err != nil {
		return fmt.Errorf("starting worker %s: %w", id, err)
	}
	c.n++
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// A worker's exit error after the manager releases it carries no
		// news; a worker that dies early shows up as a wait timeout.
		_ = w.Run(c.ctx)
	}()
	return nil
}

// waitWorkers blocks until every started worker has registered and
// returns when the manager saw the last of them register: set-up times end
// at that stamp, not at this goroutine's wake-up after it.
func (c *cluster) waitWorkers() (time.Time, error) {
	if err := c.p.waitFor("workers to register", waitLimit, c.p.hasWorkers(c.n)); err != nil {
		return time.Time{}, err
	}
	return c.p.joinedAt(), nil
}

// wait returns the next completed task and when Wait handed it back.
func (c *cluster) wait() (*taskvine.Result, time.Time, error) {
	ctx, cancel := context.WithTimeout(c.ctx, waitLimit)
	defer cancel()
	res, err := c.m.Wait(ctx)
	now := time.Now()
	if err != nil {
		return nil, now, fmt.Errorf("waiting for a result: %w", err)
	}
	c.p.waited(res, now)
	return res, now, nil
}

// submit submits t and records the facade span.
func (c *cluster) submit(t *taskvine.Task) (int, time.Time, error) {
	t0 := time.Now()
	id, err := c.m.Submit(t)
	c.p.called(id, t0, time.Now(), false)
	return id, t0, err
}

// close releases the workers, waits for every worker goroutine to exit,
// and removes the workers' directories.
func (c *cluster) close() {
	c.m.Close()
	c.cancel()
	c.wg.Wait()
	os.RemoveAll(c.dir)
}

// addMakespan files one unit-of-work time: with the tracer recording it
// is a traced sample, during a traced run's untraced lead-in it is the
// baseline, and otherwise it is the end-to-end sample.
func (e *env) addMakespan(r *report, seconds float64, traced bool) {
	if e.traced && !traced {
		r.baseline = append(r.baseline, seconds)
		return
	}
	r.Makespan = append(r.Makespan, seconds)
}
