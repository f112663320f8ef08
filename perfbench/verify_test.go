package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"taskvine"
	"taskvine/internal/policy"
	"taskvine/internal/sim"
)

// The checks below corrupt one expectation of a real run and assert that
// the benchmark counts it as a failure: an output check that cannot fail
// would let a wrong result pass as a fast one.

func testEnv(t *testing.T) *env {
	return &env{seed: 7, seconds: 1, child: -1, work: t.TempDir(), rng: rand.New(rand.NewSource(7))}
}

func TestFanoutCatchesWrongOutput(t *testing.T) {
	e := testEnv(t)
	in := makeFanoutInputs(e.rng)
	in.expect[3] = "0123456789abcdef0123456789abcdef  -\n"
	r := &report{}
	if _, _, err := fanoutIteration(e, in, r, 0, false); err != nil {
		t.Fatal(err)
	}
	// Task 3 is wrong in both the cold and the hot pass; nothing else is.
	if r.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (problems: %v)", r.Failed, r.Problems)
	}
	// Each pass also checks which layers it used (two checks a pass).
	if want := int64(2*fanTasks + 4); r.Attempted != want {
		t.Fatalf("attempted = %d, want %d", r.Attempted, want)
	}
}

func TestDAGCatchesWrongFinalObject(t *testing.T) {
	e := testEnv(t)
	in := makeDAGInputs(e.rng)
	in.final = append([]byte(nil), in.final...)
	in.final[len(in.final)/2] ^= 1
	r := &report{}
	if _, err := dagIteration(e, in, r, 0, false); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (problems: %v)", r.Failed, r.Problems)
	}
}

func TestInvokeCatchesWrongEcho(t *testing.T) {
	e := testEnv(t)
	r := &report{}
	c, err := invokeSetup(e, r)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	v := &invoker{c: c, r: r, e: e, gen: newArgMaker(e.rng), args: map[int][]byte{}}
	if _, err := v.closed(50); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("clean calls failed: %v", r.Problems)
	}
	idx, arg := v.gen.make()
	if err := v.call(idx, arg); err != nil {
		t.Fatal(err)
	}
	wrong := append([]byte(nil), arg...)
	wrong[len(wrong)-1] ^= 1
	v.mu.Lock()
	v.args[idx] = wrong
	v.mu.Unlock()
	if _, _, err := v.collect(); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 {
		t.Fatalf("failed = %d, want 1", r.Failed)
	}
}

func TestInvokeCatchesSandboxAndTransfer(t *testing.T) {
	e := testEnv(t)
	r := &report{}
	// A command task with a manager-sourced input makes one transfer and
	// one sandbox: a phase of calls must not.
	err := invokePhase(e, r, newArgMaker(e.rng), false, func(v *invoker) error {
		in := v.c.m.DeclareBuffer([]byte("x"), taskvine.CacheTask)
		task := taskvine.NewTask("cat in")
		task.AddInput(in, "in")
		if _, _, err := v.c.submit(task); err != nil {
			return err
		}
		_, _, err := v.c.wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (problems: %v)", r.Failed, r.Problems)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	e := testEnv(t)
	r := &report{}
	c, err := invokeSetup(e, r)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	v := &invoker{c: c, r: r, e: e, gen: newArgMaker(e.rng), args: map[int][]byte{}}
	st, err := v.openLoop(500, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || len(st.lat) == 0 || len(st.lat) != len(st.lag) {
		t.Fatalf("failed %d, %d latencies, %d lags", r.Failed, len(st.lat), len(st.lag))
	}
	// A call's latency counts from when it was due, so it can never be
	// shorter than how late the generator sent it.
	if percentile(st.lat, 99) < percentile(st.lag, 99) {
		t.Fatalf("p99 latency %.3f ms below p99 lateness %.3f ms", percentile(st.lat, 99), percentile(st.lag, 99))
	}
}

func TestPoolCatchesReplayMismatch(t *testing.T) {
	a, b := &report{Attempted: 1}, &report{Attempted: 1}
	a.noteExact("sim.events", 100, "count")
	b.noteExact("sim.events", 101, "count")
	if p := pool([]*report{a, b}); p.Failed != 1 || p.Attempted != 3 {
		t.Fatalf("pooled failed %d attempted %d, want 1 and 3", p.Failed, p.Attempted)
	}
	b.Extra[0].Value = 100
	if p := pool([]*report{a, b}); p.Failed != 0 {
		t.Fatalf("matching replays failed: %v", p.Problems)
	}
}

func TestSimReplaysExactly(t *testing.T) {
	run := func() (float64, int, int) {
		w := makeSimWorkload(11)
		c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
		vm := c.Run()
		if c.CompletedTasks() != len(w.Tasks) {
			t.Fatalf("simulated %d of %d tasks", c.CompletedTasks(), len(w.Tasks))
		}
		return vm, c.Trace().Len(), len(w.Tasks)
	}
	vm1, ev1, n1 := run()
	vm2, ev2, n2 := run()
	if vm1 != vm2 || ev1 != ev2 || n1 != n2 {
		t.Fatalf("replay differs: %v/%d/%d vs %v/%d/%d", vm1, ev1, n1, vm2, ev2, n2)
	}
}

func TestModuleSharesFromProfile(t *testing.T) {
	tr := newTracer()
	tr.begin()
	deadline := time.Now().Add(300 * time.Millisecond)
	var sink []byte
	for time.Now().Before(deadline) {
		sink = bytes.Repeat([]byte("x"), 1<<16)
	}
	_ = sink
	tr.end()
	if tr.profileFailed != nil {
		t.Skip("CPU profiling unavailable:", tr.profileFailed)
	}
	shares, err := moduleShares(tr.prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if len(shares) == 0 || total < 0.999 || total > 1.001 {
		t.Fatalf("shares %v sum to %v, want 1", shares, total)
	}
}

func TestModuleNames(t *testing.T) {
	for fn, want := range map[string]string{
		"taskvine/internal/core.(*Manager).handleEvent": "core",
		"taskvine/internal/protocol.(*Conn).Send":       "protocol",
		"taskvine.(*Manager).Submit":                    "taskvine",
		"internal/runtime/syscall.Syscall6":             "syscall",
		"syscall.write":                                 "syscall",
		"main.(*probe).observe":                         "bench",
		"runtime.mallocgc":                              "runtime",
		"crypto/md5.block":                              "md5",
	} {
		if got := module(fn); got != want {
			t.Errorf("module(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRSSWatchSeesPeak(t *testing.T) {
	w := watchRSS()
	b := make([]byte, 64<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	if peak := w.end(); peak < 64 {
		t.Fatalf("peak %.1f MB after touching 64 MB", peak)
	}
}
