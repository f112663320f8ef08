package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/sim"
	"taskvine/internal/trace"
)

// sim-topeft runs a TopEFT-shaped DAG (the paper's Figures 12a and 13b:
// processing leaves reading shared-filesystem chunks, then a fan-in
// accumulation tree whose partial histograms stay in the cluster) through
// the discrete-event simulator, on ramping workers. It is the only
// workload for internal/sim and the simulator driver of internal/policy.
const (
	simLeaves  = 4000
	simFanIn   = 9
	simWorkers = 60
	simCores   = 4
)

// makeSimWorkload builds the DAG from the seed alone.
func makeSimWorkload(seed int64) *sim.Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &sim.Workload{Files: map[string]*sim.File{}}
	add := func(t *sim.Task) {
		t.ID = len(w.Tasks) + 1
		t.Cores = 1
		w.Tasks = append(w.Tasks, t)
	}
	between := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

	// The seed jitters each task's sizes and runtimes around fixed means;
	// the shape (leaf count, fan-in, MC share, worker ramp) is fixed, so
	// every seed asks the simulator for the same amount of work.
	mcFrom := int(float64(simLeaves) * 0.4)
	histSize := int64(25e6)
	level := make([]string, 0, simLeaves)
	for i := 0; i < simLeaves; i++ {
		chunk := fmt.Sprintf("chunk-%d", i)
		w.Files[chunk] = &sim.File{ID: chunk, Size: int64(between(60, 180) * 1e6),
			Kind: sim.FromSharedFS, SourcePath: "/data/" + chunk, Lifetime: files.LifetimeTask}
		hist := fmt.Sprintf("hist-0-%d", i)
		w.Files[hist] = &sim.File{ID: hist, Size: histSize, Kind: sim.Produced}
		secs, cat := between(40, 80), "process-data"
		if i >= mcFrom {
			secs, cat = secs*1.8, "process-mc"
		}
		add(&sim.Task{Inputs: []string{chunk}, Outputs: []sim.Output{{ID: hist, Size: histSize}},
			Runtime: secs, Category: cat})
		level = append(level, hist)
	}
	for lvl := 1; len(level) > 1; lvl++ {
		histSize *= 3
		var next []string
		for i := 0; i < len(level); i += simFanIn {
			out := fmt.Sprintf("hist-%d-%d", lvl, i/simFanIn)
			w.Files[out] = &sim.File{ID: out, Size: histSize, Kind: sim.Produced}
			add(&sim.Task{Inputs: level[i:min(i+simFanIn, len(level))],
				Outputs: []sim.Output{{ID: out, Size: histSize}},
				Runtime: between(20, 40), Category: "accumulate"})
			next = append(next, out)
		}
		level = next
	}
	const ramp = 600.0
	for i := 0; i < simWorkers; i++ {
		w.Workers = append(w.Workers, sim.WorkerSpec{
			ID: fmt.Sprintf("w%03d", i), Cores: simCores, Disk: 200e9,
			JoinTime: ramp * float64(i) / simWorkers,
		})
	}
	return w
}

func runSim(e *env) (*report, error) {
	r := &report{}
	var virtual, events, wall []float64
	start := time.Now()
	for iter := 0; iter == 0 || !elapsed(start, e.seconds); iter++ {
		traced := e.traceFrom(start)
		runtime.GC()
		rss := watchRSS()
		t0 := time.Now()
		w := makeSimWorkload(e.seed)
		c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
		r.Setup = append(r.Setup, time.Since(t0).Seconds())

		var done []time.Time
		c.Trace().Observe(func(ev trace.Event) {
			if ev.Kind == trace.TaskEnd {
				done = append(done, time.Now())
			}
		})
		run0 := time.Now()
		vm := c.Run()
		s := time.Since(run0).Seconds()
		r.RSS = append(r.RSS, rss.end())
		e.addMakespan(r, s, traced)
		wall = append(wall, s)
		lat := make([]float64, len(done))
		for i, at := range done {
			lat[i] = ms(at.Sub(run0))
		}
		r.addLat(lat)

		r.Attempted += int64(len(w.Tasks))
		if missing := len(w.Tasks) - c.CompletedTasks(); missing > 0 {
			r.fail("simulated %d of %d tasks", c.CompletedTasks(), len(w.Tasks))
			r.Failed += int64(missing - 1) // fail counted the first
		}
		n := float64(c.Trace().Len())
		if iter > 0 {
			// The same seed must replay to the same virtual result.
			r.Attempted++
			if vm != virtual[0] || n != events[0] {
				r.fail("replay %d: virtual makespan %v and %v events, first run %v and %v",
					iter, vm, n, virtual[0], events[0])
			}
		}
		virtual = append(virtual, vm)
		events = append(events, n)
		if traced {
			e.tr.add("bench.units", float64(c.CompletedTasks()))
			e.tr.sample("sim.events_per_s", n/s)
			e.tr.setValue("sim.events", n)
			e.tr.setValue("sim.virtual_makespan_s", vm)
			e.tr.setValue("sim.transfers", sumAll(metrics.TakeSnapshot(c.Metrics()), "vine_transfers_completed_total"))
		}
	}
	r.note("sim_wall_s", median(wall), "s")
	r.noteExact("sim.virtual_makespan_s", virtual[0], "s")
	r.noteExact("sim.events", events[0], "count")
	r.note("sim.tasks", float64(len(makeSimWorkload(e.seed).Tasks)), "count")
	return r, nil
}
