package taskvine

// Tests for the extension features: replication goals, wall-time limits,
// and the status API through the public surface.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"taskvine/internal/catalog"
)

func TestWallTimeLimitKillsRunawayTask(t *testing.T) {
	c := startCluster(t, 1, nil)
	task := NewTask("sleep 30; echo never")
	task.SetMaxRunTime(300 * time.Millisecond)
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r := waitN(t, c.m, 1)[0]
	if r.OK {
		t.Fatalf("runaway task succeeded: %+v", r)
	}
	if !strings.Contains(r.Error, "wall time") {
		t.Fatalf("error = %q", r.Error)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("kill took %v", time.Since(start))
	}
}

func TestWallTimeLimitAllowsFastTask(t *testing.T) {
	c := startCluster(t, 1, nil)
	task := NewTask("echo quick")
	task.SetMaxRunTime(10 * time.Second)
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if !r.OK {
		t.Fatalf("fast task failed: %+v", r)
	}
}

func TestReplicateFileSpreadsReplicas(t *testing.T) {
	c := startCluster(t, 3, nil)
	data := c.m.DeclareBuffer(make([]byte, 64*1024), CacheWorkflow)
	if err := c.m.ReplicateFile(data, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		s := c.m.Status()
		cached := 0
		for _, w := range s.Workers {
			cached += w.CachedFiles
		}
		if cached >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication goal never met: %+v", s.Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestReplicateUnknownFile(t *testing.T) {
	c := startCluster(t, 1, nil)
	if err := c.m.ReplicateFile(File{id: "nope"}, 2); err == nil {
		t.Fatal("unknown file accepted for replication")
	}
}

func TestPublicStatus(t *testing.T) {
	c := startCluster(t, 2, nil)
	// startCluster does not wait for registration; on a loaded host one
	// worker could otherwise finish the task before the other has joined.
	deadline := time.Now().Add(10 * time.Second)
	for len(c.m.Status().Workers) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never joined: %+v", c.m.Status().Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.m.Submit(NewTask("echo hi")); err != nil {
		t.Fatal(err)
	}
	waitN(t, c.m, 1)
	s := c.m.Status()
	if len(s.Workers) != 2 || s.TasksDone != 1 {
		t.Fatalf("status = %+v", s)
	}
	addr, err := c.m.ServeStatus("")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("no status address")
	}
}

func TestManagerAdvertisesToCatalog(t *testing.T) {
	cat, err := catalog.NewServer("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	m, err := NewManager(ManagerConfig{Name: "advertised", CatalogAddr: cat.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, err := catalog.Query(cat.Addr(), "advertised")
		if err == nil && len(entries) == 1 && entries[0].Addr == m.Addr() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("manager never advertised: %v err=%v", entries, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestReplicatedTempSurvivesWorkerLoss(t *testing.T) {
	// §2.2: "duplicating items for reliability". A temp produced on one
	// worker is replicated to a second; when the producer's worker dies,
	// a consumer still runs from the surviving replica without
	// re-executing the producer.
	m, err := NewManager(ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	type liveWorker struct {
		cancel context.CancelFunc
		done   chan struct{}
	}
	start := func(id string) liveWorker {
		ctx, cancel := context.WithCancel(context.Background())
		w, err := NewWorker(WorkerConfig{
			ManagerAddr: m.Addr(),
			WorkDir:     t.TempDir(),
			Capacity:    Resources{Cores: 2, Memory: GB, Disk: GB},
			ID:          id,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		return liveWorker{cancel, done}
	}
	producerHost := start("producer-host")
	survivor := start("survivor")
	defer func() { survivor.cancel(); <-survivor.done }()

	produceCount := filepath.Join(t.TempDir(), "produce-count")
	tmp := m.DeclareTemp()
	producer := NewTask(fmt.Sprintf(
		"echo run >> %s; printf 'precious bytes' > out", produceCount))
	producer.AddOutput(tmp, "out")
	if _, err := m.Submit(producer); err != nil {
		t.Fatal(err)
	}
	if r := waitN(t, m, 1)[0]; !r.OK {
		t.Fatalf("producer failed: %+v", r)
	}

	// Replicate the temp so both workers hold it.
	if err := m.ReplicateFile(tmp, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		// Every worker must hold a READY replica before the host dies.
		ready := 0
		for _, w := range m.Status().Workers {
			if w.CachedFiles >= 1 {
				ready++
			}
		}
		if ready == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never became ready on both workers")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the producer's host.
	producerHost.cancel()
	<-producerHost.done

	consumer := NewTask("cat in")
	consumer.AddInput(tmp, "in")
	if _, err := m.Submit(consumer); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, m, 1)[0]
	if !r.OK || !strings.Contains(string(r.Output), "precious bytes") {
		t.Fatalf("consumer failed after worker loss: %+v output=%q", r, r.Output)
	}
	// The producer must NOT have re-executed: one line in the count file.
	b, _ := os.ReadFile(produceCount)
	if got := strings.Count(string(b), "run"); got != 1 {
		t.Fatalf("producer executed %d times; replica should have prevented re-execution", got)
	}
}
