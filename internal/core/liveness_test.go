package core

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"taskvine/internal/protocol"
	"taskvine/internal/resources"
)

// TestSilentWorkerDropped: a "worker" that registers but never answers
// heartbeats is dropped after the timeout, and its task is recovered.
func TestSilentWorkerDropped(t *testing.T) {
	m, err := NewManager(Config{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A fake worker with enormous capacity (it attracts the task) that
	// registers and then goes silent, draining but never answering.
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fake := protocol.NewConn(nc)
	defer fake.Close()
	if err := fake.Send(&protocol.Message{
		Type:     protocol.TypeRegister,
		WorkerID: "zombie",
		Capacity: &resources.R{Cores: 999, Memory: resources.TB, Disk: resources.TB},
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, _, err := fake.Recv(); err != nil {
				return
			}
		}
	}()

	// The zombie must be observed, then dropped.
	deadline := time.Now().Add(10 * time.Second)
	for len(m.Status().Workers) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("zombie never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for len(m.Status().Workers) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never dropped")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestResponsiveWorkerSurvivesLivenessChecks: a real worker answers
// heartbeats and stays registered far beyond the timeout.
func TestResponsiveWorkerSurvivesLivenessChecks(t *testing.T) {
	h := newHarness(t, 1, Config{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for len(h.m.Status().Workers) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(600 * time.Millisecond) // several timeout periods
	if len(h.m.Status().Workers) != 1 {
		t.Fatal("responsive worker dropped by liveness check")
	}
	// And it still runs tasks.
	if _, err := h.m.Submit(command("echo alive")); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK || !strings.Contains(string(r.Output), "alive") {
		t.Fatalf("result = %+v", r)
	}
}

// TestTraceFileWrittenOnClose: the workflow transaction log lands on disk.
func TestTraceFileWrittenOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	h := newHarness(t, 1, Config{TraceFile: path})
	if _, err := h.m.Submit(command("echo logged")); err != nil {
		t.Fatal(err)
	}
	waitResult(t, h.m)
	h.m.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "worker-joined") || !strings.Contains(s, "task-end") {
		t.Fatalf("trace file incomplete: %q", s)
	}
}
