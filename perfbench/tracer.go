package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskvine/internal/metrics"
)

// unaccountedTolerance is the share of submit-to-Wait time the five
// measured stages may leave unexplained before the stage sum is flagged.
// What remains is control-frame transit and worker bookkeeping, which no
// stage covers yet.
const unaccountedTolerance = 0.25

// maxSpans caps the in-memory span buffer of one traced run.
const maxSpans = 200_000

// layerMetrics is every per-layer metric a traced run reports, in print
// order. A metric a workload does not exercise reads 0; bench.units is
// the base every per-task figure divides by.
var layerMetrics = []struct{ name, unit string }{
	{"bench.units", "count"},
	{"taskvine.submit_us.p50", "us"},
	{"taskvine.invoke_us.p50", "us"},
	{"taskvine.invoke_us.p99", "us"},
	{"taskvine.declare_ms", "ms"},
	{"taskvine.fetch_ms", "ms"},
	{"core.queue_ms.p50", "ms"},
	{"core.queue_ms.p99", "ms"},
	{"core.deliver_ms.p50", "ms"},
	{"core.deliver_ms.p99", "ms"},
	{"core.schedule_passes_per_task", "ratio"},
	{"core.schedule_pass_us.mean", "us"},
	{"core.dispatch_latency_ms.p50", "ms"},
	{"core.requeues", "count"},
	{"core.cpu_share", "ratio"},
	{"protocol.cpu_share", "ratio"},
	{"syscall.cpu_share", "ratio"},
	{"protocol.send_errors", "count"},
	{"replica.transfers.url", "count"},
	{"replica.transfers.worker", "count"},
	{"replica.transfers.manager", "count"},
	{"replica.transfers_hot_pass", "count"},
	{"replica.bytes.url", "bytes"},
	{"replica.bytes.worker", "bytes"},
	{"replica.bytes.manager", "bytes"},
	{"replica.transfer_ms.p50.url", "ms"},
	{"replica.transfer_ms.p50.worker", "ms"},
	{"replica.transfer_ms.p50.manager", "ms"},
	{"replica.transfer_failures", "count"},
	{"replica.transfer_retries", "count"},
	{"policy.cpu_share", "ratio"},
	{"httpsource.fetches", "count"},
	{"httpsource.bytes", "bytes"},
	{"worker.stage_ms.p50", "ms"},
	{"worker.run_ms.p50", "ms"},
	{"worker.minitask_ms.p50", "ms"},
	{"worker.peer_serves", "count"},
	{"worker.peer_serve_bytes", "bytes"},
	{"worker.peer_fetch_retries", "count"},
	{"worker.cpu_share", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.inserts", "count"},
	{"cache.insert_bytes", "bytes"},
	{"cache.evictions", "count"},
	{"cache.mem_hits", "count"},
	{"cache.cpu_share", "ratio"},
	{"sandbox.created", "count"},
	{"sandbox.destroy_failures", "count"},
	{"serverless.library_ready_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.virtual_makespan_s", "s"},
	{"sim.transfers", "count"},
	{"sim.cpu_share", "ratio"},
	{"proc.alloc_bytes_per_task", "bytes"},
	{"proc.mallocs_per_task", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

// cpuModules are the modules whose self-time share of the CPU profile is
// reported, keyed by the module name profile functions map to.
var cpuModules = []string{"core", "protocol", "syscall", "policy", "worker", "cache", "sim"}

// tracer collects the per-layer numbers of one traced run: samples and
// sums from spans and the event join, registry deltas, runtime.MemStats
// deltas and a CPU profile, all over one recording segment.
type tracer struct {
	on atomic.Bool

	mu      sync.Mutex
	samples map[string][]float64 // guarded by mu
	sums    map[string]float64   // guarded by mu
	set     map[string]float64   // guarded by mu; final values
	spans   spanLog

	started       bool
	prof          bytes.Buffer
	ms0, ms1      runtime.MemStats
	segment0      time.Time
	segmentS      float64
	dispatchHist  map[string]int64 // le -> count, summed over registry deltas
	profileFailed error
}

func newTracer() *tracer {
	return &tracer{
		samples:      map[string][]float64{},
		sums:         map[string]float64{},
		set:          map[string]float64{},
		dispatchHist: map[string]int64{},
		spans:        spanLog{epoch: time.Now()},
	}
}

// recording reports whether the traced segment is running. A nil tracer
// never records.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// traceFrom is called by a workload before each unit of work. A traced run
// first measures untraced for baseShare of its time (the baseline that
// prices tracing), then records until the end; it reports whether this
// unit is recorded.
func (e *env) traceFrom(start time.Time) bool {
	const baseShare = 0.4
	if !e.traced {
		return false
	}
	if !e.tr.started && time.Since(start).Seconds() >= baseShare*e.seconds {
		e.tr.begin()
	}
	return e.tr.recording()
}

func (t *tracer) begin() {
	t.started = true
	runtime.ReadMemStats(&t.ms0)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		t.profileFailed = err
	}
	t.segment0 = time.Now()
	t.on.Store(true)
}

func (t *tracer) end() {
	if !t.on.Load() {
		return
	}
	t.on.Store(false)
	t.segmentS = time.Since(t.segment0).Seconds()
	if t.profileFailed == nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&t.ms1)
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tracer) setValue(name string, v float64) {
	t.mu.Lock()
	t.set[name] = v
	t.mu.Unlock()
}

// taskDone turns one joined task into stage samples: the facade call, the
// wait for dispatch, worker staging and execution, and delivery back
// through Wait. What the stages leave of the submit-to-Wait time is the
// unaccounted residual.
func (t *tracer) taskDone(id int, r *taskRec) {
	call := r.call1.Sub(r.call0)
	queue := r.start.Sub(r.call1)
	if queue < 0 {
		// A directly routed Invoke is dispatched inside the call.
		queue = 0
	}
	deliver := r.wait.Sub(r.end)
	total := ms(r.wait.Sub(r.call0))
	parts := ms(call) + ms(queue) + float64(r.stagedMS+r.runMS) + ms(deliver)

	t.mu.Lock()
	if r.invoke {
		t.samples["taskvine.invoke_us"] = append(t.samples["taskvine.invoke_us"], ms(call)*1000)
	} else {
		t.samples["taskvine.submit_us"] = append(t.samples["taskvine.submit_us"], ms(call)*1000)
	}
	t.samples["core.queue_ms"] = append(t.samples["core.queue_ms"], ms(queue))
	t.samples["core.deliver_ms"] = append(t.samples["core.deliver_ms"], ms(deliver))
	t.samples["worker.stage_ms"] = append(t.samples["worker.stage_ms"], float64(r.stagedMS))
	t.samples["worker.run_ms"] = append(t.samples["worker.run_ms"], float64(r.runMS))
	t.sums["stagesum.total_ms"] += total
	t.sums["stagesum.residual_ms"] += total - parts
	t.sums["bench.units"]++
	t.mu.Unlock()

	callName := "submit"
	if r.invoke {
		callName = "invoke"
	}
	t.spans.add(callName, "taskvine", "client", r.call0, r.call1, id)
	if queue > 0 {
		t.spans.add("queue", "core", "manager", r.call1, r.start, id)
	}
	t.spans.add("execute", "worker", r.worker, r.start, r.end, id)
	t.spans.add("deliver", "core", "client", r.end, r.wait, id)
}

// registryDelta adds the instrument movement between two snapshots of a
// manager registry (which its in-process workers share). hot marks a
// fanout-shared hot pass, whose transfers are also counted on their own.
func (t *tracer) registryDelta(a, b metrics.Snapshot, hot bool) {
	d := func(name string) float64 { return delta(a, b, name) }
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sums["core.schedule_passes"] += d("vine_schedule_passes_total")
	t.sums["core.tasks_completed"] += d("vine_tasks_completed_total") + d("vine_tasks_failed_total")
	t.sums["core.requeues"] += d("vine_tasks_requeued_total")
	t.sums["protocol.send_errors"] += d("vine_send_errors_total")
	t.sums["replica.transfer_failures"] += d("vine_transfers_failed_total")
	t.sums["replica.transfer_retries"] += d("vine_transfer_retries_total")
	t.sums["worker.peer_serves"] += d("vine_peer_serves_total")
	t.sums["worker.peer_serve_bytes"] += d("vine_peer_serve_bytes_total")
	t.sums["worker.peer_fetch_retries"] += d("vine_peer_fetch_retries_total")
	t.sums["cache.hits"] += d("vine_cache_hits_total")
	t.sums["cache.misses"] += d("vine_cache_misses_total")
	t.sums["cache.inserts"] += d("vine_cache_inserts_total")
	t.sums["cache.insert_bytes"] += d("vine_cache_insert_bytes_total")
	t.sums["cache.evictions"] += d("vine_cache_evictions_total")
	t.sums["cache.mem_hits"] += d("vine_cache_mem_hits_total")
	t.sums["sandbox.created"] += d("vine_sandboxes_created_total")
	t.sums["sandbox.destroy_failures"] += d("vine_sandbox_destroy_failures_total")
	for _, kind := range []string{"url", "worker", "manager"} {
		n := byLabel(b, "vine_transfers_completed_total", kind) - byLabel(a, "vine_transfers_completed_total", kind)
		t.sums["replica.transfers."+kind] += n
		t.sums["replica.bytes."+kind] += byLabel(b, "vine_transfer_bytes_total", kind) - byLabel(a, "vine_transfer_bytes_total", kind)
		if hot {
			t.sums["replica.transfers_hot_pass"] += n
		}
	}
	c0, s0, _ := histogram(a, "vine_schedule_pass_seconds")
	c1, s1, _ := histogram(b, "vine_schedule_pass_seconds")
	t.sums["core.schedule_pass_count"] += float64(c1 - c0)
	t.sums["core.schedule_pass_seconds"] += s1 - s0
	_, _, h0 := histogram(a, "vine_dispatch_latency_seconds")
	_, _, h1 := histogram(b, "vine_dispatch_latency_seconds")
	for le, n := range h1 {
		t.dispatchHist[le] += n - h0[le]
	}
}

// delta is how far the instrument name, summed over its labels, moved
// between two snapshots.
func delta(a, b metrics.Snapshot, name string) float64 {
	return sumAll(b, name) - sumAll(a, name)
}

// transfers is how many transfers completed or failed between two
// snapshots, from any source.
func transfers(a, b metrics.Snapshot) float64 {
	return delta(a, b, "vine_transfers_completed_total") + delta(a, b, "vine_transfers_failed_total")
}

func sumAll(s metrics.Snapshot, name string) float64 {
	f, ok := s.Family(name)
	if !ok {
		return 0
	}
	var v float64
	for _, m := range f.Metrics {
		v += m.Value
	}
	return v
}

func byLabel(s metrics.Snapshot, name, source string) float64 {
	return s.LabeledValue(name, map[string]string{"source": source})
}

// histogram returns an unlabeled histogram's count, sum and cumulative
// bucket counts keyed by upper bound.
func histogram(s metrics.Snapshot, name string) (int64, float64, map[string]int64) {
	buckets := map[string]int64{}
	f, ok := s.Family(name)
	if !ok || len(f.Metrics) == 0 {
		return 0, 0, buckets
	}
	m := f.Metrics[0]
	for _, b := range m.Buckets {
		buckets[b.Le] = b.Count
	}
	return m.Count, m.Sum, buckets
}

// histogramP50 interpolates the median inside the cumulative bucket that
// crosses half the observations.
func histogramP50(cum map[string]int64) float64 {
	type bucket struct {
		le float64
		n  int64
	}
	var bs []bucket
	var total int64
	for le, n := range cum {
		if le == "+Inf" {
			total = n
			continue
		}
		v, err := strconv.ParseFloat(le, 64)
		if err == nil {
			bs = append(bs, bucket{v, n})
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	half := float64(total) / 2
	prevLe, prevN := 0.0, int64(0)
	for _, b := range bs {
		if float64(b.n) >= half {
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(half-float64(prevN))/float64(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}

// finish ends the recording segment and derives every per-layer metric.
func (t *tracer) finish(r *report) []line {
	t.end()
	t.mu.Lock()
	defer t.mu.Unlock()

	units := t.sums["bench.units"]
	t.set["core.schedule_passes_per_task"] = ratio(t.sums["core.schedule_passes"], t.sums["core.tasks_completed"])
	t.set["core.schedule_pass_us.mean"] = 1e6 * ratio(t.sums["core.schedule_pass_seconds"], t.sums["core.schedule_pass_count"])
	t.set["core.dispatch_latency_ms.p50"] = 1000 * histogramP50(t.dispatchHist)
	t.set["cache.hit_ratio"] = ratio(t.sums["cache.hits"], t.sums["cache.hits"]+t.sums["cache.misses"])
	t.set["proc.alloc_bytes_per_task"] = ratio(float64(t.ms1.TotalAlloc-t.ms0.TotalAlloc), units)
	t.set["proc.mallocs_per_task"] = ratio(float64(t.ms1.Mallocs-t.ms0.Mallocs), units)
	t.set["proc.gc_cycles"] = float64(t.ms1.NumGC - t.ms0.NumGC)
	t.set["proc.gc_pause_ms"] = float64(t.ms1.PauseTotalNs-t.ms0.PauseTotalNs) / 1e6
	t.set["trace.unaccounted_frac"] = ratio(t.sums["stagesum.residual_ms"], t.sums["stagesum.total_ms"])
	if len(r.Makespan) > 0 && len(r.baseline) > 0 {
		t.set["trace.overhead_frac"] = median(r.Makespan)/median(r.baseline) - 1
	}
	if t.profileFailed == nil {
		shares, err := moduleShares(t.prof.Bytes())
		if err != nil {
			t.profileFailed = err
		}
		for _, mod := range cpuModules {
			t.set[mod+".cpu_share"] = shares[mod]
		}
	}
	if t.profileFailed != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile unavailable:", t.profileFailed)
	}

	if t.sums["stagesum.total_ms"] > 0 {
		verdict := "within"
		if t.set["trace.unaccounted_frac"] > unaccountedTolerance {
			verdict = "OUTSIDE"
		}
		r.note("trace.stage_sum_check", t.set["trace.unaccounted_frac"], fmt.Sprintf("ratio (%s tolerance %.2f)", verdict, unaccountedTolerance))
	}
	r.note("trace.baseline_makespan_s", median(r.baseline), "s")
	r.note("trace.traced_makespan_s", median(r.Makespan), "s")
	r.note("trace.segment_s", t.segmentS, "s")

	out := make([]line, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		out = append(out, line{Name: m.name, Value: t.value(m.name), Unit: m.unit})
	}
	return out
}

// value resolves one metric name: a derived value, else a percentile of
// the samples named without the ".p50"/".p99" segment, else a sum, else
// the median of samples with that exact name. Caller holds t.mu.
func (t *tracer) value(name string) float64 {
	if v, ok := t.set[name]; ok {
		return v
	}
	for _, q := range []struct {
		seg string
		p   float64
	}{{".p50", 50}, {".p99", 99}} {
		if i := strings.Index(name, q.seg); i >= 0 {
			return percentile(t.samples[name[:i]+name[i+len(q.seg):]], q.p)
		}
	}
	if v, ok := t.sums[name]; ok {
		return v
	}
	return median(t.samples[name])
}

// spanLog keeps spans in memory until the run ends, then writes them as
// Chrome trace-event JSON, which chrome://tracing and Perfetto open.
type spanLog struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []chromeEvent  // guarded by mu
	tids    map[string]int // guarded by mu
	dropped int            // guarded by mu
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func (l *spanLog) add(name, cat, tid string, t0, t1 time.Time, task int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	if l.tids == nil {
		l.tids = map[string]int{}
	}
	id, ok := l.tids[tid]
	if !ok {
		id = len(l.tids) + 1
		l.tids[tid] = id
	}
	ev := chromeEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: id,
		TS:  float64(t0.Sub(l.epoch)) / float64(time.Microsecond),
		Dur: float64(t1.Sub(t0)) / float64(time.Microsecond),
	}
	if task != 0 {
		ev.Args = map[string]any{"task": task}
	}
	l.spans = append(l.spans, ev)
}

func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	events := append([]chromeEvent(nil), l.spans...)
	for name, id := range l.tids {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": name}})
	}
	dropped := l.dropped
	l.mu.Unlock()
	raw, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": dropped},
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
