package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// BenchmarkManagerDispatch measures end-to-end task throughput of the real
// manager over loopback sockets with trivial tasks — the production
// counterpart of the §6 discussion that dispatch cost bounds how fast
// millions of short tasks can run. Reports tasks/second.
func BenchmarkManagerDispatch(b *testing.B) {
	m, err := NewManager(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := worker.New(worker.Config{
			ManagerAddr: m.Addr(),
			WorkDir:     b.TempDir(),
			Capacity:    resources.R{Cores: 8, Memory: resources.GB, Disk: resources.GB},
			ID:          fmt.Sprintf("bench-w%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
		go w.Run(ctx)
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		spec := &taskspec.Spec{Kind: taskspec.KindCommand, Command: "true"}
		if _, err := m.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		r, err := m.Wait(wctx)
		wcancel()
		if err != nil {
			b.Fatal(err)
		}
		if !r.OK {
			b.Fatalf("task failed: %+v", r)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "tasks/s")
}

// connWriteStats sums the socket writes and frames of every connection the
// manager has accepted.
func (m *Manager) connWriteStats() (writes, frames int64) {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	for conn := range m.conns {
		w, f := conn.WriteStats()
		writes += w
		frames += f
	}
	return writes, frames
}

// BenchmarkManagerInvoke measures the plain manager's serverless invoke
// path: two workers serving an echo library, 32 calls outstanding, every
// call routed directly to a ready instance. Besides calls/s it reports the
// socket writes per call on both sides of the control connections (the
// manager's invoke frame and the worker's completion frame) and the frames
// each write carried, the two figures write coalescing moves.
func BenchmarkManagerInvoke(b *testing.B) {
	const window = 32
	m, err := NewManager(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]*worker.Worker, 2)
	for i := range workers {
		w, err := worker.New(worker.Config{
			ManagerAddr: m.Addr(),
			WorkDir:     b.TempDir(),
			Capacity:    resources.R{Cores: 2, Memory: resources.GB, Disk: resources.GB},
			ID:          fmt.Sprintf("bench-w%d", i),
			Libraries:   doubleLibrary(),
		})
		if err != nil {
			b.Fatal(err)
		}
		workers[i] = w
		go w.Run(ctx)
	}
	m.InstallLibrary("math", resources.R{Cores: 1})
	deadline := time.Now().Add(10 * time.Second)
	for countKind(m, trace.LibraryReady, "") < len(workers) {
		if time.Now().After(deadline) {
			b.Fatal("library instances never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	writeStats := func() (writes, frames int64) {
		writes, frames = m.connWriteStats()
		for _, w := range workers {
			ww, wf := w.WriteStats()
			writes += ww
			frames += wf
		}
		return writes, frames
	}
	arg := []byte("x")
	invoke := func() {
		if _, err := m.Invoke("math", "double", arg); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	writes0, frames0 := writeStats()
	start := time.Now()
	submitted := 0
	for ; submitted < window && submitted < b.N; submitted++ {
		invoke()
	}
	for done := 0; done < b.N; done++ {
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		r, err := m.Wait(wctx)
		wcancel()
		if err != nil {
			b.Fatal(err)
		}
		if !r.OK {
			b.Fatalf("call failed: %+v", r)
		}
		if submitted < b.N {
			invoke()
			submitted++
		}
	}
	elapsed := time.Since(start)
	writes, frames := writeStats()
	writes -= writes0
	frames -= frames0
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "calls/s")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
	if writes > 0 {
		b.ReportMetric(float64(frames)/float64(writes), "frames/write")
	}
}
