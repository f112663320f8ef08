package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"taskvine"
	"taskvine/internal/metrics"
)

// serverless-invoke calls an echo function of a library installed on both
// workers: no transfers, no fork/exec, no disk cache per call. It runs a
// closed loop with a fixed window, then open-loop Poisson arrivals at two
// fixed rates, then a fixed rate ladder for the highest rate that meets
// the latency limit.
const (
	closedClusters = 3    // clusters the closed loop is spread over
	closedBatches  = 3    // closed-loop batches per cluster
	invokeBatch    = 2000 // calls per closed-loop batch
	warmupCalls    = 256  // untimed calls on every fresh cluster
	openWindows    = 3    // windows, each on a fresh cluster, per open-loop rate
	invokeWindow   = 32   // outstanding calls in the closed loop

	// The open-loop rates are absolute, so a faster build shows as lower
	// latency at the same load rather than as a different load. On the
	// reference VM the closed loop completes 31000-35000 calls/s, and over
	// twenty seeds on a quiet host the ladder's max_rps_slo read
	// 20000-40000 calls/s, median 36000 (16000-20000 under 10-20%
	// hypervisor steal): the low rate is a tenth of that knee, and the high
	// rate is the highest ladder step that passed in 19 of the 20 runs.
	rateLow  = 3000.0  // calls/s, well below the knee
	rateHigh = 24000.0 // calls/s, near the knee

	// sloP50 is the latency limit a ladder step must meet at its median.
	// A tail percentile is not used: on the two-vCPU reference VM one host
	// stall of a few milliseconds delays every call in flight, and under
	// 10-20% hypervisor steal a ladder step's p90 read 3-12 ms and its p99
	// 6-55 ms at any rate from 2000 to 28000 calls/s, while its median
	// stayed under 2 ms until the offered rate neared the closed-loop
	// capacity (about 30000 calls/s) and then rose to 4-12 ms.
	sloP50 = 2 * time.Millisecond
	// stepSeconds is how long one ladder step offers its rate.
	stepSeconds = 0.3
	// drainLimit bounds the backlog a step may end with: more calls
	// outstanding at the last send than the rate offers in drainLimit
	// means the system is not keeping up.
	drainLimit = 20 * time.Millisecond
)

// ladder is the fixed sequence of offered rates (calls/s) max_rps_slo
// climbs until a step misses the limit or its backlog grows.
var ladder = []float64{2000, 4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000, 36000, 40000, 48000, 56000, 64000}

var echoLibrary = &taskvine.Library{
	Name: "bench",
	Functions: map[string]taskvine.Function{
		"echo": func(args []byte) ([]byte, error) { return args, nil },
	},
}

// argMaker draws call arguments from the seed: mostly ~100 bytes, with a
// tail out to tens of kilobytes. Each argument starts with its call index,
// so every echo is unique and names the call it answers.
type argMaker struct {
	rng  *rand.Rand
	pool []byte
	next int
}

const argHeader = 12 // "c0000000042:" — the call index

func newArgMaker(rng *rand.Rand) *argMaker {
	return &argMaker{rng: rng, pool: randBytes(rng, 64<<10)}
}

func (a *argMaker) make() (int, []byte) {
	size := 64 + a.rng.Intn(128)
	if a.rng.Float64() < 0.05 {
		size = int(math.Exp(a.rng.Float64()*math.Log(32)) * 1024) // 1-32 KB
	}
	off := a.rng.Intn(len(a.pool) - size)
	idx := a.next
	a.next++
	arg := make([]byte, argHeader, argHeader+size)
	copy(arg, fmt.Sprintf("c%010d:", idx))
	return idx, append(arg, a.pool[off:off+size]...)
}

// callIndex reads the call index back out of an echo.
func callIndex(out []byte) (int, bool) {
	if len(out) < argHeader || out[0] != 'c' || out[argHeader-1] != ':' {
		return 0, false
	}
	n, err := strconv.Atoi(string(out[1 : argHeader-1]))
	return n, err == nil
}

func runInvoke(e *env) (*report, error) {
	r := &report{}
	args := newArgMaker(e.rng)

	// Closed loop: a fixed number of batches on a few fresh clusters. The
	// manager keeps a record of every call, so fixed call counts keep each
	// cluster's heap the same size however fast the build; peak_rss_mb is
	// sampled on these clusters only (open-loop windows and ladder steps
	// hold other call counts). In a traced run the first cluster is the
	// untraced baseline.
	var rps []float64
	for k := 0; k < closedClusters; k++ {
		if e.traced && k == closedClusters/2 {
			e.tr.begin()
		}
		err := invokePhase(e, r, args, true, func(v *invoker) error {
			for b := 0; b < closedBatches; b++ {
				s, err := v.closed(invokeBatch)
				if err != nil {
					return err
				}
				e.addMakespan(r, s, e.tr.recording())
				rps = append(rps, invokeBatch/s)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	r.note("invoke_rps", median(rps), "calls/s")

	// Open loop at the two fixed rates, each as several windows on fresh
	// clusters. Near the knee a few percent of capacity moves the tail
	// severalfold, so the gated latency is the low rate's, per window; the
	// high rate's is printed beside it.
	var lags []float64
	var backlog int64
	for _, p := range []struct {
		name  string
		rate  float64
		share float64
	}{{"low", rateLow, 0.3}, {"high", rateHigh, 0.2}} {
		var lat []float64
		for w := 0; w < openWindows; w++ {
			err := invokePhase(e, r, args, false, func(v *invoker) error {
				st, err := v.openLoop(p.rate, p.share*e.seconds/openWindows)
				if err != nil {
					return err
				}
				lat = append(lat, st.lat...)
				if p.name == "low" {
					r.addLat(st.lat)
				}
				lags = append(lags, st.lag...)
				backlog = max(backlog, st.backlogMax)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		r.note("lat_p50_ms."+p.name, percentile(lat, 50), "ms")
		r.note("lat_p99_ms."+p.name, percentile(lat, 99), "ms")
	}
	r.note("loadgen.lag_p99_ms", percentile(lags, 99), "ms")
	r.note("loadgen.backlog_max", float64(backlog), "count")
	if e.traced {
		e.tr.setValue("loadgen.lag_p99_ms", percentile(lags, 99))
		e.tr.setValue("loadgen.backlog_max", float64(backlog))
		return r, nil
	}
	if e.child > 0 {
		return r, nil // the ladder runs in the first measuring process only
	}

	best := 0.0
	for _, rate := range ladder {
		var st *openStats
		err := invokePhase(e, r, args, false, func(v *invoker) error {
			var err error
			st, err = v.openLoop(rate, stepSeconds)
			return err
		})
		if err != nil {
			return nil, err
		}
		p50 := percentile(st.lat, 50)
		if p50 > ms(sloP50) || st.growing(rate) {
			r.note("ladder.first_failing_rate", rate, "calls/s")
			r.note("ladder.first_failing_p50_ms", p50, "ms")
			r.note("ladder.first_failing_end_backlog", float64(st.endBacklog), "count")
			break
		}
		best = rate
	}
	r.note("max_rps_slo", best, "calls/s")
	r.note("slo_p50_ms", ms(sloP50), "ms")
	return r, nil
}

// invokePhase runs one phase on a cluster of its own, sampling its peak
// RSS when sampleRSS is set. The manager keeps every finished call's
// record for the life of the cluster, so a fresh cluster per phase keeps
// one phase's heap (and its garbage collection) out of the next phase's
// latencies; the collection before the phase starts it from the same
// state every time.
func invokePhase(e *env, r *report, args *argMaker, sampleRSS bool, phase func(v *invoker) error) error {
	c, err := invokeSetup(e, r)
	if err != nil {
		return err
	}
	defer c.close()
	v := &invoker{c: c, r: r, e: e, gen: args, args: map[int][]byte{}}
	// Warm the new connections and library instances before timing.
	if _, err := v.closed(warmupCalls); err != nil {
		return err
	}
	runtime.GC()
	if sampleRSS {
		rss := watchRSS()
		defer func() { r.RSS = append(r.RSS, rss.end()) }()
	}
	snap0 := metrics.TakeSnapshot(c.m.Metrics())
	if err := phase(v); err != nil {
		return err
	}
	snap1 := metrics.TakeSnapshot(c.m.Metrics())
	// Calls must skip the layers this workload is not for: no transfer and
	// no sandbox per call.
	r.Attempted += 2
	if n := transfers(snap0, snap1); n != 0 {
		r.fail("calls made %v transfers", n)
	}
	if n := delta(snap0, snap1, "vine_sandboxes_created_total"); n != 0 {
		r.fail("calls created %v sandboxes", n)
	}
	if e.tr.recording() {
		e.tr.registryDelta(snap0, snap1, false)
	}
	return nil
}

// invokeSetup brings up a manager and two workers and installs the
// library, returning once both instances are ready.
func invokeSetup(e *env, r *report) (*cluster, error) {
	dir := filepath.Join(e.work, "invoke-"+strconv.Itoa(len(r.Setup)))
	if err := prepareWorkers(dir, "w1", "w2"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := newCluster(e, dir)
	if err != nil {
		return nil, err
	}
	for _, id := range []string{"w1", "w2"} {
		if err := c.addWorker(id, echoLibrary); err != nil {
			c.close()
			return nil, err
		}
	}
	if _, err := c.waitWorkers(); err != nil {
		c.close()
		return nil, err
	}
	installed := time.Now()
	c.m.InstallLibrary("bench", taskvine.Resources{Cores: 1})
	if err := c.p.waitFor("library instances", waitLimit, c.p.librariesReady(2)); err != nil {
		c.close()
		return nil, err
	}
	r.Setup = append(r.Setup, c.p.readyAt().Sub(t0).Seconds())
	if e.tr != nil {
		c.p.mu.Lock()
		for _, at := range c.p.ready {
			e.tr.sample("serverless.library_ready_ms", ms(at.Sub(installed)))
		}
		c.p.mu.Unlock()
	}
	return c, nil
}

// invoker drives calls against one cluster and checks every echo.
type invoker struct {
	c   *cluster
	r   *report
	e   *env
	gen *argMaker

	mu   sync.Mutex
	args map[int][]byte // guarded by mu; outstanding call index -> argument
}

func (v *invoker) call(idx int, arg []byte) error {
	v.mu.Lock()
	v.args[idx] = arg
	v.mu.Unlock()
	t0 := time.Now()
	id, err := v.c.m.Invoke("bench", "echo", arg)
	if err != nil {
		return fmt.Errorf("invoking: %w", err)
	}
	v.c.p.called(id, t0, time.Now(), true)
	return nil
}

// collect waits for one result, verifies it, and returns its call index
// (-1 when the echo is unrecognisable) and arrival time.
func (v *invoker) collect() (int, time.Time, error) {
	res, at, err := v.c.wait()
	if err != nil {
		return -1, at, err
	}
	v.r.Attempted++
	idx, ok := callIndex(res.Output)
	var want []byte
	if ok {
		v.mu.Lock()
		want, ok = v.args[idx]
		delete(v.args, idx)
		v.mu.Unlock()
	}
	switch {
	case !res.OK:
		v.r.fail("call task %d failed: %s", res.TaskID, res.Error)
	case !ok:
		v.r.fail("call task %d returned an echo of no outstanding call", res.TaskID)
		return -1, at, nil
	case !bytes.Equal(res.Output, want):
		v.r.fail("call %d echoed %d bytes that differ from its %d-byte argument", idx, len(res.Output), len(want))
	}
	return idx, at, nil
}

// closed runs calls with invokeWindow outstanding from one goroutine and
// returns their wall time.
func (v *invoker) closed(calls int) (float64, error) {
	start := time.Now()
	issued := 0
	for ; issued < invokeWindow; issued++ {
		if err := v.call(v.gen.make()); err != nil {
			return 0, err
		}
	}
	for done := 0; done < calls; done++ {
		if _, _, err := v.collect(); err != nil {
			return 0, err
		}
		if issued < calls {
			if err := v.call(v.gen.make()); err != nil {
				return 0, err
			}
			issued++
		}
	}
	s := time.Since(start).Seconds()
	v.c.p.flush()
	return s, nil
}

type openStats struct {
	lat, lag   []float64 // ms: due -> verified echo; due -> sent
	backlogMax int64
	endBacklog int64 // calls outstanding right after the last send
}

// growing reports a step that ended with more calls outstanding than the
// rate offers in drainLimit: the system is not keeping up with it.
func (s *openStats) growing(rate float64) bool {
	return float64(s.endBacklog) > rate*drainLimit.Seconds()
}

// openLoop offers Poisson arrivals at rate for seconds from one generator
// goroutine, on a schedule drawn from the seed before the first call, and
// times each call from when it was due.
func (v *invoker) openLoop(rate, seconds float64) (*openStats, error) {
	var due []time.Duration
	for t := 0.0; ; {
		t += v.e.rng.ExpFloat64() / rate
		if t >= seconds {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	type call struct {
		idx int
		arg []byte
	}
	calls := make([]call, len(due))
	dueOf := map[int]time.Duration{}
	for i := range calls {
		calls[i].idx, calls[i].arg = v.gen.make()
		dueOf[calls[i].idx] = due[i]
	}

	st := &openStats{lag: make([]float64, len(due))}
	var sent, received atomic.Int64
	var genErr error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, c := range calls {
			if d := time.Until(start.Add(due[i])); d > 50*time.Microsecond {
				time.Sleep(d)
			}
			st.lag[i] = ms(time.Since(start.Add(due[i])))
			if err := v.call(c.idx, c.arg); err != nil {
				genErr = err
				return
			}
			backlog := sent.Add(1) - received.Load()
			st.backlogMax = max(st.backlogMax, backlog)
			st.endBacklog = backlog
		}
	}()
	var err error
	for range calls {
		idx, at, cerr := v.collect()
		if cerr != nil {
			err = cerr
			break
		}
		received.Add(1)
		if d, ok := dueOf[idx]; ok {
			st.lat = append(st.lat, ms(at.Sub(start.Add(d))))
		}
	}
	wg.Wait()
	if genErr != nil {
		return nil, genErr
	}
	if err != nil {
		return nil, err
	}
	v.c.p.flush()
	return st, nil
}
