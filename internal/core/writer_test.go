package core

// Tests for the manager's side of the per-connection outbound queue: the
// event loop only enqueues frames, so a worker that is slow or has stopped
// reading costs the loop nothing, and the liveness check drops a worker
// whose connection's writer has been stuck on it for HeartbeatTimeout.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// stuckReaderBytes is the size of the manager-sourced buffer streamed to a
// worker that never reads: far more than the send buffer plus a receive
// window that never grows (it grows only as the application reads), so the
// put can never finish.
const stuckReaderBytes = 32 << 20

// startLibraryWorker runs a real worker serving the math library.
func startLibraryWorker(t *testing.T, h *harness, id string) {
	t.Helper()
	w, err := worker.New(worker.Config{
		ManagerAddr: h.m.Addr(),
		WorkDir:     t.TempDir(),
		Capacity:    resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB},
		ID:          id,
		Libraries:   doubleLibrary(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w.Run(ctx)
	}()
	t.Cleanup(cancel)
}

// joinStuckReader registers a fake worker that never reads from its
// connection. The test's cleanup closes its socket first, which fails
// whatever the manager is still writing to it.
func joinStuckReader(t *testing.T, m *Manager, id string, cores int) *protocol.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := protocol.NewConn(nc)
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeRegister, WorkerID: id,
		Capacity: &resources.R{Cores: cores, Memory: resources.TB, Disk: resources.TB},
	}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// declareLargeBuffer declares a stuckReaderBytes buffer.
func declareLargeBuffer(t *testing.T, m *Manager) string {
	t.Helper()
	buf, err := m.Files().DeclareBuffer(make([]byte, stuckReaderBytes), files.LifetimeTask)
	if err != nil {
		t.Fatal(err)
	}
	return buf.ID
}

// submitLargePut submits a task reading the buffer, sized so that only a
// worker offering cores can run it, then waits until the manager has
// started streaming the buffer.
func submitLargePut(t *testing.T, m *Manager, bufID string, cores int) {
	t.Helper()
	spec := command("wc -c < big")
	spec.Resources = resources.R{Cores: cores}
	spec.AddInput(bufID, "big")
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for countKind(m, trace.TransferStart, bufID) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the put never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDispatchNotStalledByLargePut is the stall regression: while a large
// manager-sourced buffer streams to worker A, which does not read it,
// function calls on the idle worker B must keep completing. Before the
// outbound queue, the put held A's connection for the whole stream and the
// loop's next frame to A (a heartbeat ping here) blocked behind it,
// stopping all dispatch.
func TestDispatchNotStalledByLargePut(t *testing.T) {
	h := newHarness(t, 0, Config{
		TickInterval:      10 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	startLibraryWorker(t, h, "b")
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	waitLibraryReady(t, h.m)
	bufID := declareLargeBuffer(t, h.m)
	joinStuckReader(t, h.m, "a", 16)
	waitWorkers(t, h.m, 2)
	// Only A offers 12 cores, so the put goes to A.
	submitLargePut(t, h.m, bufID, 12)
	// Let the loop ping A at least once while the put is in flight.
	time.Sleep(100 * time.Millisecond)

	const calls = 40
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < calls; i++ {
			if _, err := h.m.Invoke("math", "double", []byte("x")); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := h.m.Wait(ctx)
	if err != nil {
		t.Fatalf("no call completed within 5s while a put streamed to another worker: %v", err)
	}
	first := time.Since(start)
	if !r.OK || r.Worker != "b" {
		t.Fatalf("first call = %+v", r)
	}
	if first > 50*time.Millisecond {
		t.Fatalf("first call on the idle worker took %v while a put streamed to another worker", first)
	}
	for i := 1; i < calls; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("call failed: %+v", r)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestInvokeNotStalledByDeclareBuffer: declaring a worker-lifetime buffer
// copies and hashes it, tens of milliseconds for stuckReaderBytes. The
// event loop takes the registry lock on every submit and completion, so a
// call on an idle worker made while the buffer is being declared must still
// return promptly. Before the copy and the hash moved out of the lock, the
// call waited for the whole declaration.
func TestInvokeNotStalledByDeclareBuffer(t *testing.T) {
	h := newHarness(t, 0, Config{})
	startLibraryWorker(t, h, "b")
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	waitLibraryReady(t, h.m)
	content := make([]byte, stuckReaderBytes)
	declaring := make(chan struct{})
	declared := make(chan time.Duration, 1)
	go func() {
		close(declaring)
		start := time.Now()
		if _, err := h.m.Files().DeclareBuffer(content, files.LifetimeWorker); err != nil {
			t.Error(err)
		}
		declared <- time.Since(start)
	}()
	<-declaring
	start := time.Now()
	if _, err := h.m.Invoke("math", "double", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	first := time.Since(start)
	if !r.OK {
		t.Fatalf("call = %+v", r)
	}
	// A call that waits for the registry lock takes about as long as the
	// whole declaration. The bound scales with the declaration, which the
	// race detector or a loaded host slows several times over.
	declare := <-declared
	if limit := max(50*time.Millisecond, declare*3/4); first > limit {
		t.Fatalf("a call on an idle worker took %v while a buffer was being declared (declaring took %v)", first, declare)
	}
}

// TestChaosStuckReaderDropped: a worker that keeps sending heartbeats but
// stops reading looks alive to the silence check. The connection's writer
// is stuck on it instead, and checkLiveness drops it after
// HeartbeatTimeout: its task goes back to the queue, and the other worker
// keeps receiving dispatches throughout.
func TestChaosStuckReaderDropped(t *testing.T) {
	h := newHarness(t, 0, Config{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
	})
	bufID := declareLargeBuffer(t, h.m)
	a := joinStuckReader(t, h.m, "stuck", 8)
	stop := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if a.Send(&protocol.Message{Type: protocol.TypeHeartbeat, WorkerID: "stuck"}) != nil {
					return
				}
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-beatDone })
	waitWorkers(t, h.m, 1)
	// Six cores: only the stuck reader can take the task, so once
	// requeued it stays queued rather than re-streaming the buffer.
	submitLargePut(t, h.m, bufID, 6)

	startChaosWorker(t, h, "w0", resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}, nil)
	for i := 0; i < 5; i++ {
		if _, err := h.m.Submit(command(fmt.Sprintf("echo %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		r := waitResult(t, h.m)
		if !r.OK || r.Worker != "w0" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := h.m.Status()
		if len(st.Workers) == 1 && st.TasksWaiting == 1 && st.TasksRunning == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stuck reader not dropped with its task requeued: %d workers, %d waiting, %d running",
				len(st.Workers), st.TasksWaiting, st.TasksRunning)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := countKind(h.m, trace.WorkerLeft, ""); got != 1 {
		t.Fatalf("WorkerLeft events = %d, want 1 (the stuck reader)", got)
	}
}

// TestPlainInvokesAreNotArchived: finished calls that registered no outputs
// are forgotten, so 10k invocations leave nothing behind, while a task
// that produced a temp stays archived for recovery re-execution.
func TestPlainInvokesAreNotArchived(t *testing.T) {
	h := newHarness(t, 0, Config{})
	startLibraryWorker(t, h, "lib")
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	waitLibraryReady(t, h.m)

	const calls, window = 10_000, 32
	submitted := 0
	for ; submitted < window; submitted++ {
		if _, err := h.m.Invoke("math", "double", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for done := 0; done < calls; done++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("call failed: %+v", r)
		}
		if submitted < calls {
			if _, err := h.m.Invoke("math", "double", []byte("x")); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
	}
	temp := h.m.Files().DeclareTemp()
	prod := command("echo kept > out")
	prod.AddOutput(temp.ID, "out")
	prodID, err := h.m.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, h.m); !r.OK {
		t.Fatalf("producer failed: %+v", r)
	}
	// The loop has exited once Close returns, so its state is ours to read.
	h.m.Close()
	if len(h.m.archived) != 1 || h.m.archived[prodID] == nil {
		t.Fatalf("archived %d tasks, want only the producer %d", len(h.m.archived), prodID)
	}
	for id, task := range h.m.tasks {
		if !task.library {
			t.Fatalf("finished task %d still in the task map", id)
		}
	}
}
