package shard

// Conformance: a 1-shard router must be byte-for-byte indistinguishable
// from a plain core.Manager — same task IDs, same results, and an
// identical execution trace for an identical workload. This is the
// contract that lets the facade switch transparently on cfg.Shards.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"taskvine/internal/core"
	"taskvine/internal/httpsource"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// controlPlane is the slice of the manager API the conformance workload
// and the dispatch benchmark exercise; *core.Manager and *Router both
// implement it.
type controlPlane interface {
	Addr() string
	Status() core.Status
	Submit(*taskspec.Spec) (int, error)
	Invoke(library, function string, args []byte) (int, error)
	Wait(context.Context) (*core.Result, error)
	Trace() *trace.Log
}

// conformanceWorkload is deterministic by construction: command tasks
// with no files, run in lockstep (submit, wait, repeat) against a single
// worker with a pinned ID, so event order cannot vary between runs.
func conformanceWorkload() []*taskspec.Spec {
	mk := func(cmd, cat string) *taskspec.Spec {
		return &taskspec.Spec{Kind: taskspec.KindCommand, Command: cmd, Category: cat}
	}
	return []*taskspec.Spec{
		mk("true", "noop"),
		mk("echo hello", "chatter"),
		mk("false", "failing"),
		mk("echo again", "chatter"),
		mk("true", "noop"),
	}
}

// driveConformance runs the workload against one control plane and
// returns the per-task result lines plus the execution trace rendered as
// CSV with timestamps zeroed (wall-clock times are the one legitimately
// nondeterministic field).
func driveConformance(t *testing.T, cp controlPlane) ([]string, []byte) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w, err := worker.New(worker.Config{
		ManagerAddr: cp.Addr(),
		WorkDir:     t.TempDir(),
		Capacity:    resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB},
		ID:          "w-conf",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.Now().Add(10 * time.Second)
	for len(cp.Status().Workers) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var lines []string
	for _, spec := range conformanceWorkload() {
		id, err := cp.Submit(spec.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
		res, err := cp.Wait(wctx)
		wcancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.TaskID != id {
			t.Fatalf("lockstep wait returned task %d, submitted %d", res.TaskID, id)
		}
		lines = append(lines, fmt.Sprintf("task=%d ok=%v exit=%d worker=%s out=%q",
			res.TaskID, res.OK, res.ExitCode, res.Worker, res.Output))
	}

	evs := cp.Trace().Events()
	for i := range evs {
		evs[i].Time = 0
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return lines, buf.Bytes()
}

func TestSingleShardConformance(t *testing.T) {
	m, err := core.NewManager(core.Config{Head: httpsource.Head})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mLines, mCSV := driveConformance(t, m)

	r, err := New(Config{Shards: 1, Manager: core.Config{Head: httpsource.Head}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rLines, rCSV := driveConformance(t, r)

	if len(mLines) != len(rLines) {
		t.Fatalf("result counts differ: manager %d, router %d", len(mLines), len(rLines))
	}
	for i := range mLines {
		if mLines[i] != rLines[i] {
			t.Fatalf("result %d differs:\n  manager: %s\n  router:  %s", i, mLines[i], rLines[i])
		}
	}
	if !bytes.Equal(mCSV, rCSV) {
		t.Fatalf("traces differ:\n--- manager ---\n%s\n--- router ---\n%s", mCSV, rCSV)
	}
}
