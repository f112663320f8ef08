package main

import (
	"crypto/md5"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"taskvine"
	"taskvine/internal/httpsource"
	"taskvine/internal/metrics"
)

// fanout-shared is shaped like the BLAST workflow of the paper's Figure 9:
// many short command tasks all read one software package and one
// database, both fetched from an archive as worker-lifetime URLs and
// unpacked once per worker by an untar MiniTask. Each iteration runs a
// cold pass on empty caches and, after EndWorkflow, an identical hot pass.
const (
	fanTasks      = 32      // command tasks per pass
	fanShards     = 8       // database shards; each task reads one
	fanShardBytes = 1 << 20 // bytes per database shard
	fanLibBytes   = 1 << 20 // bytes of software libraries beside the program
)

type fanoutInputs struct {
	software, database []byte
	program            []byte
	shards             [][]byte
	queries            []string
	shardOf            []int
	expect             []string // md5sum output of each task
}

func makeFanoutInputs(rng *rand.Rand) *fanoutInputs {
	in := &fanoutInputs{program: randBytes(rng, 4096)}
	sw := map[string][]byte{
		"bin/blast":   in.program,
		"lib/libz.so": randBytes(rng, fanLibBytes/2),
		"lib/libb.so": randBytes(rng, fanLibBytes/2),
	}
	db := map[string][]byte{}
	for k := 0; k < fanShards; k++ {
		s := randBytes(rng, fanShardBytes)
		in.shards = append(in.shards, s)
		db["shard-"+strconv.Itoa(k)+".bin"] = s
	}
	// Tarball only fails on a tar writer error into memory.
	in.software, _ = httpsource.Tarball(sw)
	in.database, _ = httpsource.Tarball(db)
	for i := 0; i < fanTasks; i++ {
		q := fmt.Sprintf("%016x", rng.Uint64())
		k := rng.Intn(fanShards)
		h := md5.New()
		h.Write([]byte(q))
		h.Write(in.program)
		h.Write(in.shards[k])
		in.queries = append(in.queries, q)
		in.shardOf = append(in.shardOf, k)
		in.expect = append(in.expect, fmt.Sprintf("%x  -\n", h.Sum(nil)))
	}
	return in
}

func (in *fanoutInputs) task(i int, sw, db taskvine.File) *taskvine.Task {
	t := taskvine.NewTask(fmt.Sprintf("printf %s | cat - sw/bin/blast db/shard-%d.bin | md5sum",
		in.queries[i], in.shardOf[i]))
	t.AddInput(sw, "sw")
	t.AddInput(db, "db")
	t.SetCategory("blast")
	return t
}

func runFanout(e *env) (*report, error) {
	in := makeFanoutInputs(e.rng)
	r := &report{}
	var cold, hot []float64
	start := time.Now()
	for iter := 0; iter == 0 || !elapsed(start, e.seconds); iter++ {
		traced := e.traceFrom(start)
		runtime.GC()
		rss := watchRSS()
		c, h, err := fanoutIteration(e, in, r, iter, traced)
		r.RSS = append(r.RSS, rss.end())
		if err != nil {
			return nil, err
		}
		e.addMakespan(r, c, traced)
		cold = append(cold, c)
		hot = append(hot, h)
	}
	r.note("makespan_cold_s", median(cold), "s")
	r.note("makespan_hot_s", median(hot), "s")
	r.note("iterations", float64(len(cold)), "count")
	return r, nil
}

// fanoutIteration sets up an archive, a manager and the first worker,
// runs the cold and hot passes, and tears everything down. It returns the
// two pass makespans.
func fanoutIteration(e *env, in *fanoutInputs, r *report, iter int, traced bool) (float64, float64, error) {
	dir := filepath.Join(e.work, "fanout-"+strconv.Itoa(iter))
	if err := prepareWorkers(dir, "w1", "w2"); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	archive := httpsource.New(
		&httpsource.Object{Path: "/blast.tar", Content: in.software},
		&httpsource.Object{Path: "/landmark.tar", Content: in.database},
	)
	defer archive.Close()
	c, err := newCluster(e, dir)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	if err := c.addWorker("w1"); err != nil {
		return 0, 0, err
	}
	joined, err := c.waitWorkers()
	if err != nil {
		return 0, 0, err
	}
	r.Setup = append(r.Setup, joined.Sub(t0).Seconds())

	d0 := time.Now()
	swURL, err := c.m.DeclareURL(archive.URL("/blast.tar"), taskvine.CacheWorker)
	if err != nil {
		return 0, 0, fmt.Errorf("declaring software: %w", err)
	}
	dbURL, err := c.m.DeclareURL(archive.URL("/landmark.tar"), taskvine.CacheWorker)
	if err != nil {
		return 0, 0, fmt.Errorf("declaring database: %w", err)
	}
	if traced {
		e.tr.sample("taskvine.declare_ms", ms(time.Since(d0))/2)
	}
	sw, err := c.m.DeclareUntar(swURL, taskvine.CacheWorker)
	if err != nil {
		return 0, 0, fmt.Errorf("declaring untar: %w", err)
	}
	db, err := c.m.DeclareUntar(dbURL, taskvine.CacheWorker)
	if err != nil {
		return 0, 0, fmt.Errorf("declaring untar: %w", err)
	}

	fetches := func() int64 { return archive.Fetches("/blast.tar") + archive.Fetches("/landmark.tar") }
	snap0 := metrics.TakeSnapshot(c.m.Metrics())
	// The second worker joins once the first holds both unpacked inputs,
	// so they reach it by peer transfer rather than from the archive.
	joinSecond := func() error {
		if err := c.p.waitFor("w1 to hold the shared inputs", waitLimit, c.p.holds("w1", sw.ID(), db.ID())); err != nil {
			return err
		}
		return c.addWorker("w2")
	}
	coldS, err := fanoutPass(c, in, r, sw, db, nil, joinSecond)
	if err != nil {
		return 0, 0, err
	}
	snap1 := metrics.TakeSnapshot(c.m.Metrics())
	coldFetches := fetches()
	// The cold pass must lean on the layers it is here for: the archive
	// and a worker-to-worker transfer.
	r.Attempted += 2
	if coldFetches == 0 {
		r.fail("cold pass fetched nothing from the archive")
	}
	if n := byLabel(snap1, "vine_transfers_completed_total", "worker") - byLabel(snap0, "vine_transfers_completed_total", "worker"); n == 0 {
		r.fail("cold pass moved nothing from worker to worker")
	}
	if traced {
		e.tr.registryDelta(snap0, snap1, false)
		e.tr.add("httpsource.fetches", float64(coldFetches))
		e.tr.add("httpsource.bytes", float64(archive.Fetches("/blast.tar")*int64(len(in.software))+
			archive.Fetches("/landmark.tar")*int64(len(in.database))))
	}

	c.m.EndWorkflow()
	var lat []float64
	hotS, err := fanoutPass(c, in, r, sw, db, &lat, nil)
	if err != nil {
		return 0, 0, err
	}
	r.addLat(lat)
	snap2 := metrics.TakeSnapshot(c.m.Metrics())
	// The hot pass must skip every transfer: nothing from the archive and
	// nothing between workers.
	r.Attempted += 2
	if f := fetches() - coldFetches; f != 0 {
		r.fail("hot pass fetched from the archive %d times", f)
	}
	if n := transfers(snap1, snap2); n != 0 {
		r.fail("hot pass made %v transfers", n)
	}
	if traced {
		e.tr.registryDelta(snap1, snap2, true)
		c.p.flush()
	}
	return coldS, hotS, nil
}

// fanoutPass submits every task, runs between (if set) once all are
// submitted, and verifies every result. Per-task latency from submission
// to verified result goes to lat when it is non-nil.
func fanoutPass(c *cluster, in *fanoutInputs, r *report, sw, db taskvine.File, lat *[]float64, between func() error) (float64, error) {
	start := time.Now()
	want := map[int]int{}
	submitted := map[int]time.Time{}
	for i := range in.queries {
		id, t0, err := c.submit(in.task(i, sw, db))
		if err != nil {
			return 0, fmt.Errorf("submitting: %w", err)
		}
		want[id] = i
		submitted[id] = t0
	}
	if between != nil {
		if err := between(); err != nil {
			return 0, err
		}
	}
	for range in.queries {
		res, at, err := c.wait()
		if err != nil {
			return 0, err
		}
		r.Attempted++
		i, ok := want[res.TaskID]
		switch {
		case !ok:
			r.fail("unexpected task %d", res.TaskID)
		case !res.OK:
			r.fail("task %d failed: %s", res.TaskID, res.Error)
		case string(res.Output) != in.expect[i]:
			r.fail("task %d output %q, want %q", res.TaskID, res.Output, in.expect[i])
		}
		if lat != nil {
			*lat = append(*lat, ms(at.Sub(submitted[res.TaskID])))
		}
	}
	return time.Since(start).Seconds(), nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
