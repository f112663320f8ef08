package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"taskvine"
	"taskvine/internal/metrics"
)

// dag-reduce is shaped like the TopEFT map -> accumulate DAG of the
// paper's Figures 12a and 13b: each map task reads its own multi-megabyte
// manager-sourced buffer and writes a temp; accumulate tasks merge temps
// in a fan-in tree, often reading from the other worker; the final object
// is brought back with FetchFile. Commands only frame and concatenate, so
// the expected final bytes are known exactly.
const (
	dagMaps       = 12
	dagFanIn      = 4
	dagChunkBytes = 2 << 20 // each map task's input
)

type dagInputs struct {
	chunks [][]byte
	final  []byte
}

func makeDAGInputs(rng *rand.Rand) *dagInputs {
	in := &dagInputs{}
	var final bytes.Buffer
	for i := 0; i < dagMaps; i++ {
		c := randBytes(rng, dagChunkBytes)
		in.chunks = append(in.chunks, c)
		fmt.Fprintf(&final, "m%d\n", i)
		final.Write(c)
	}
	// The accumulation tree concatenates in order, so the final object is
	// every map output back to back.
	in.final = final.Bytes()
	return in
}

func runDAG(e *env) (*report, error) {
	in := makeDAGInputs(e.rng)
	r := &report{}
	start := time.Now()
	for iter := 0; iter == 0 || !elapsed(start, e.seconds); iter++ {
		traced := e.traceFrom(start)
		runtime.GC()
		rss := watchRSS()
		s, err := dagIteration(e, in, r, iter, traced)
		r.RSS = append(r.RSS, rss.end())
		if err != nil {
			return nil, err
		}
		e.addMakespan(r, s, traced)
	}
	r.note("iterations", float64(len(r.Setup)), "count")
	r.note("dag_bytes", float64(len(in.final)), "bytes")
	return r, nil
}

func dagIteration(e *env, in *dagInputs, r *report, iter int, traced bool) (float64, error) {
	dir := filepath.Join(e.work, "dag-"+strconv.Itoa(iter))
	if err := prepareWorkers(dir, "w1", "w2"); err != nil {
		return 0, err
	}
	t0 := time.Now()
	c, err := newCluster(e, dir)
	if err != nil {
		return 0, err
	}
	defer c.close()
	for _, id := range []string{"w1", "w2"} {
		if err := c.addWorker(id); err != nil {
			return 0, err
		}
	}
	joined, err := c.waitWorkers()
	if err != nil {
		return 0, err
	}
	r.Setup = append(r.Setup, joined.Sub(t0).Seconds())

	var snap0 metrics.Snapshot
	if traced {
		snap0 = metrics.TakeSnapshot(c.m.Metrics())
	}
	start := time.Now()
	submitted := map[int]time.Time{}
	submit := func(t *taskvine.Task) (int, error) {
		id, at, err := c.submit(t)
		if err != nil {
			return 0, fmt.Errorf("submitting: %w", err)
		}
		submitted[id] = at
		return id, nil
	}
	// Map-task latency is the manager->worker put path plus dispatch; the
	// accumulate tasks wait on their inputs, so they are left out of it.
	maps := map[int]bool{}
	var level []taskvine.File
	for i, chunk := range in.chunks {
		d0 := time.Now()
		buf := c.m.DeclareBuffer(chunk, taskvine.CacheTask)
		if traced {
			e.tr.sample("taskvine.declare_ms", ms(time.Since(d0)))
		}
		out := c.m.DeclareTemp()
		t := taskvine.NewTask(fmt.Sprintf("{ printf 'm%d\\n'; cat in; } > out", i))
		t.AddInput(buf, "in")
		t.AddOutput(out, "out")
		t.SetCategory("map")
		id, err := submit(t)
		if err != nil {
			return 0, err
		}
		maps[id] = true
		level = append(level, out)
	}
	for len(level) > 1 {
		var next []taskvine.File
		for i := 0; i < len(level); i += dagFanIn {
			group := level[i:min(i+dagFanIn, len(level))]
			out := c.m.DeclareTemp()
			names := make([]string, len(group))
			for j := range group {
				names[j] = "p" + strconv.Itoa(j)
			}
			t := taskvine.NewTask("cat " + strings.Join(names, " ") + " > out")
			for j, f := range group {
				t.AddInput(f, names[j])
			}
			t.AddOutput(out, "out")
			t.SetCategory("accumulate")
			if _, err := submit(t); err != nil {
				return 0, err
			}
			next = append(next, out)
		}
		level = next
	}
	var lat []float64
	for range submitted {
		res, at, err := c.wait()
		if err != nil {
			return 0, err
		}
		r.Attempted++
		if !res.OK {
			r.fail("task %d failed: %s", res.TaskID, res.Error)
		}
		if maps[res.TaskID] {
			lat = append(lat, ms(at.Sub(submitted[res.TaskID])))
		}
	}
	r.addLat(lat)

	ctx, cancel := context.WithTimeout(c.ctx, waitLimit)
	defer cancel()
	f0 := time.Now()
	got, err := c.m.FetchFile(ctx, level[0])
	if traced {
		e.tr.sample("taskvine.fetch_ms", ms(time.Since(f0)))
	}
	r.Attempted++
	switch {
	case err != nil:
		r.fail("fetching the final object: %v", err)
	case !bytes.Equal(got, in.final):
		r.fail("final object is %d bytes and differs from the expected %d", len(got), len(in.final))
	}
	makespan := time.Since(start).Seconds()
	if traced {
		e.tr.registryDelta(snap0, metrics.TakeSnapshot(c.m.Metrics()), false)
		c.p.flush()
	}
	c.m.EndWorkflow()
	return makespan, nil
}
