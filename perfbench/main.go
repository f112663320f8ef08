// Command perfbench is the repository benchmark: four workloads that drive
// the public taskvine facade (and internal/sim for the simulator workload)
// in-process, verify every output, and print end-to-end metrics, or, with
// -trace 1, a per-layer breakdown. See README.md in this directory for why
// each workload exists and what each metric means.
//
//	python3 perfbench/run.py --workload fanout-shared --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A wrong output is counted in "failed", makes "correct" false, and makes
// the process exit with status 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// measuringProcs is how many measuring processes an end-to-end run is
// split across (see runProcesses).
const measuringProcs = 6

// stealLimit is the share of the machine's CPU time the hypervisor may
// take during a measuring process before its samples count as taken on a
// contended host (see runProcesses).
const stealLimit = 0.02

// runDeadline bounds a whole run: a wedged workload must fail, not hang
// past the time a caller waits for a result.
const runDeadline = 170 * time.Second

// env is what every workload receives: its inputs come only from seed.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	child   int    // index of this measuring process; -1 when it is the only one
	work    string // scratch directory, removed at exit
	rng     *rand.Rand
	tr      *tracer // nil unless traced
}

// report is what a workload hands back: the raw samples behind the
// end-to-end metrics plus workload-specific figures (Extra) that are
// printed by name but are not part of the JSON result. A measuring
// process hands it to the parent as JSON.
type report struct {
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Setup     []float64 `json:"setup"`    // seconds per set-up
	Makespan  []float64 `json:"makespan"` // seconds per unit of work
	Lat       []float64 `json:"lat"`      // milliseconds per operation
	// LatP50 and LatP90 hold one percentile of Lat per unit of work; the
	// end-to-end figures are their medians, so a unit slowed by a passing
	// stall on the host moves them no more than it moves makespan_s.
	LatP50 []float64 `json:"lat_p50"`
	LatP90 []float64 `json:"lat_p90"`
	Extra  []line    `json:"extra"`
	RSS    []float64 `json:"rss"` // peak MB per unit of work

	// baseline holds makespan samples taken with tracing off during a
	// traced run, to price the tracing itself (trace.overhead_frac).
	baseline []float64
	layers   []line // per-layer metrics of a traced run
}

type line struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Exact marks a figure every repeat of the same seed must reproduce
	// bit for bit; the parent counts a disagreement as a failure.
	Exact bool `json:"exact,omitempty"`
}

// fail records one failed operation with a reason (only the first few
// reasons are kept for printing).
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(name string, value float64, unit string) {
	r.Extra = append(r.Extra, line{Name: name, Value: value, Unit: unit})
}

// addLat files the per-operation latencies (ms) of one unit of work.
func (r *report) addLat(lat []float64) {
	if len(lat) == 0 {
		return
	}
	r.Lat = append(r.Lat, lat...)
	r.LatP50 = append(r.LatP50, percentile(lat, 50))
	r.LatP90 = append(r.LatP90, percentile(lat, 90))
}

func (r *report) noteExact(name string, value float64, unit string) {
	r.Extra = append(r.Extra, line{Name: name, Value: value, Unit: unit, Exact: true})
}

type workloadFunc func(e *env) (*report, error)

var workloads = map[string]workloadFunc{
	"fanout-shared":     runFanout,
	"dag-reduce":        runDAG,
	"serverless-invoke": runInvoke,
	"sim-topeft":        runSim,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: fanout-shared, dag-reduce, serverless-invoke, sim-topeft")
		seed    = flag.Int64("seed", 1, "seed all inputs are generated from")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for scratch files and trace exports")
		child   = flag.Int("child", -1, "internal: index of a measuring process")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds > 0, -trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, runDeadline)
		os.Exit(3)
	})
	defer timer.Stop()
	outDir, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	var rep *report
	if *trace == 0 && *child < 0 {
		rep, err = runProcesses(measuringProcs, []string{
			"-workload", *name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds/measuringProcs, 'g', -1, 64),
			"-trace", "0", "-out", outDir,
		})
	} else {
		rep, err = runHere(fn, *seed, *seconds, *trace == 1, *child, outDir, *name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *child >= 0 {
		enc, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(enc))
		return 0
	}

	res := resultOut{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricOut{}}
	res.Correct = rep.Failed == 0 && rep.Attempted > 0
	lines := endToEnd(rep)
	if *trace == 1 {
		lines = rep.layers
	}
	for _, m := range lines {
		res.Metrics[m.Name] = metricOut{m.Value, m.Unit}
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d (GOMAXPROCS %d)\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	for _, l := range rep.Extra {
		fmt.Printf("  %-34s %14.4f %s\n", l.Name, l.Value, l.Unit)
	}
	fmt.Printf("  %-34s %14.4f %s\n", "lat_p95_ms", percentile(rep.Lat, 95), "ms")
	fmt.Printf("  %-34s %14.4f %s\n", "lat_p99_ms", percentile(rep.Lat, 99), "ms")
	fmt.Printf("  %-34s %14.4f %s\n", "failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, p := range rep.Problems {
		fmt.Println("  FAILED:", p)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// runHere runs the workload in this process.
func runHere(fn workloadFunc, seed int64, seconds float64, traced bool, child int, outDir, name string) (*report, error) {
	work := filepath.Join(outDir, "work-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{
		seed: seed, seconds: seconds, traced: traced, child: child,
		work: work, rng: rand.New(rand.NewSource(seed)),
	}
	if traced {
		e.tr = newTracer()
	}
	rep, err := fn(e)
	if err != nil {
		return nil, err
	}
	if traced {
		rep.layers = e.tr.finish(rep)
		path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := e.tr.spans.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			fmt.Printf("trace written to %s (chrome://tracing or ui.perfetto.dev)\n", path)
		}
	}
	return rep, nil
}

// runProcesses splits an end-to-end run across n measuring processes run
// one after another with args, and pools their samples. One process's
// goroutine scheduling can settle into a regime that holds its throughput
// 10-15% above or below another's for its whole life; pooling several
// processes is what makes the medians repeat from run to run.
//
// The reference machine is a virtual machine whose host also runs other
// guests, and in episodes of host contention the hypervisor takes enough
// CPU time ("steal") to slow every figure by 50% or more. A measuring
// process that saw more than stealLimit of the machine's CPU time stolen
// is followed by another, up to n/2 extra, and the n least-stolen
// processes are pooled. Every process's failures count, pooled or not.
func runProcesses(n int, args []string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	type run struct {
		rep   *report
		steal float64
	}
	var runs []run
	var stolen, total uint64
	for i, clean := 0, 0; i < n+n/2 && clean < n; i++ {
		s0, t0 := cpuTimes()
		cmd := exec.Command(self, append(args, "-child", strconv.Itoa(i))...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		s1, t1 := cpuTimes()
		outLines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		r := &report{}
		if err := json.Unmarshal([]byte(outLines[len(outLines)-1]), r); err != nil {
			return nil, fmt.Errorf("measuring process %d printed no result: %w", i, err)
		}
		stolen, total = stolen+s1-s0, total+t1-t0
		steal := ratio(float64(s1-s0), float64(t1-t0))
		if steal <= stealLimit {
			clean++
		}
		runs = append(runs, run{r, steal})
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].steal < runs[j].steal })
	var pooled []*report
	for _, r := range runs[:n] {
		pooled = append(pooled, r.rep)
	}
	p := pool(pooled)
	have := map[string]bool{}
	for _, l := range p.Extra {
		have[l.Name] = true
	}
	for _, r := range runs[n:] {
		p.Attempted += r.rep.Attempted
		p.Failed += r.rep.Failed
		for _, prob := range r.rep.Problems {
			if len(p.Problems) < 8 {
				p.Problems = append(p.Problems, prob)
			}
		}
		// A figure only a left-out process measured (the ladder runs in
		// the first process alone) is still reported.
		for _, l := range r.rep.Extra {
			if !have[l.Name] {
				have[l.Name] = true
				p.Extra = append(p.Extra, l)
			}
		}
	}
	p.note("measuring_processes_run", float64(len(runs)), "count")
	p.note("host.steal_frac", ratio(float64(stolen), float64(total)), "ratio")
	return p, nil
}

// cpuTimes reads the machine's stolen and total CPU time, in clock ticks,
// from /proc/stat (zeros where it is unavailable, which disables the
// steal check).
func cpuTimes() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	first, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(first)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// pool merges the reports of several measuring processes: samples are
// pooled, each extra figure becomes its median across processes, and an
// exact figure that differs between processes is a failure.
func pool(reps []*report) *report {
	pooled := &report{}
	extras := map[string][]line{}
	var order []string
	for i, r := range reps {
		pooled.Attempted += r.Attempted
		pooled.Failed += r.Failed
		for _, p := range r.Problems {
			if len(pooled.Problems) < 8 {
				pooled.Problems = append(pooled.Problems, fmt.Sprintf("process %d: %s", i, p))
			}
		}
		pooled.Setup = append(pooled.Setup, r.Setup...)
		pooled.Makespan = append(pooled.Makespan, r.Makespan...)
		pooled.Lat = append(pooled.Lat, r.Lat...)
		pooled.LatP50 = append(pooled.LatP50, r.LatP50...)
		pooled.LatP90 = append(pooled.LatP90, r.LatP90...)
		pooled.RSS = append(pooled.RSS, r.RSS...)
		for _, l := range r.Extra {
			if _, seen := extras[l.Name]; !seen {
				order = append(order, l.Name)
			}
			extras[l.Name] = append(extras[l.Name], l)
		}
	}
	for _, name := range order {
		ls := extras[name]
		vals := make([]float64, len(ls))
		for i, l := range ls {
			vals[i] = l.Value
			if l.Exact && i > 0 {
				pooled.Attempted++
				if l.Value != ls[0].Value {
					pooled.fail("%s is %v in one process but %v in another", name, l.Value, ls[0].Value)
				}
			}
		}
		pooled.note(name, median(vals), ls[0].Unit)
	}
	pooled.note("measuring_processes", float64(len(reps)), "count")
	return pooled
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(r *report) []line {
	return []line{
		{Name: "setup_s", Value: median(r.Setup), Unit: "s"},
		{Name: "makespan_s", Value: median(r.Makespan), Unit: "s"},
		{Name: "lat_p50_ms", Value: median(r.LatP50), Unit: "ms"},
		{Name: "lat_p90_ms", Value: median(r.LatP90), Unit: "ms"},
		{Name: "peak_rss_mb", Value: median(r.RSS), Unit: "MB"},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// elapsed reports whether a measurement loop that started at start has
// used up budget seconds.
func elapsed(start time.Time, budget float64) bool {
	return time.Since(start).Seconds() >= budget
}
