package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"taskvine/internal/core"
	"taskvine/internal/httpsource"
	"taskvine/internal/resources"
	"taskvine/internal/serverless"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// BenchmarkShardedDispatch measures aggregate dispatch throughput of the
// sharded control plane at 1, 2, and 4 shards, each shard with its own
// worker, driving the serverless invoke path (function calls carry their
// arguments inline, so throughput is bounded by control-plane dispatch,
// not by fork/exec). A window of in-flight invocations per shard keeps
// every event loop busy. Reports tasks/second. The plain sub-benchmark
// runs the same loop against one core.Manager with one worker and the
// one-shard window: the like-for-like baseline any shard count must beat.
func BenchmarkShardedDispatch(b *testing.B) {
	b.Run("plain", benchPlainDispatch)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedDispatch(b, shards)
		})
	}
}

// benchLibraries builds the echo library every benchmark worker serves.
func benchLibraries() *serverless.Registry {
	reg := serverless.NewRegistry()
	reg.Register(&serverless.Library{
		Name: "bench",
		Functions: map[string]serverless.Function{
			"echo": func(args []byte) ([]byte, error) { return args, nil },
		},
	})
	return reg
}

// startBenchWorker runs one echo-serving worker against addr until ctx ends.
func startBenchWorker(b *testing.B, ctx context.Context, addr, id string) {
	b.Helper()
	w, err := worker.New(worker.Config{
		ManagerAddr: addr,
		WorkDir:     b.TempDir(),
		Capacity:    resources.R{Cores: 8, Memory: resources.GB, Disk: resources.GB},
		ID:          id,
		Libraries:   benchLibraries(),
	})
	if err != nil {
		b.Fatal(err)
	}
	go w.Run(ctx)
}

func benchShardedDispatch(b *testing.B, shards int) {
	r, err := New(Config{
		Shards:        shards,
		Manager:       core.Config{Head: httpsource.Head},
		LeaseInterval: -1, // fixed worker placement; measure dispatch alone
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for s, addr := range r.Addrs() {
		startBenchWorker(b, ctx, addr, fmt.Sprintf("bench-w%d", s))
	}
	r.InstallLibrary("bench", resources.R{Cores: 1})
	for s := 0; s < shards; s++ {
		waitLibraryReadyB(b, r.Shard(s), s)
	}
	driveInvokes(b, ctx, r, 64*shards)
}

func benchPlainDispatch(b *testing.B) {
	m, err := core.NewManager(core.Config{Head: httpsource.Head})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startBenchWorker(b, ctx, m.Addr(), "bench-w0")
	m.InstallLibrary("bench", resources.R{Cores: 1})
	waitLibraryReadyB(b, m, 0)
	driveInvokes(b, ctx, m, 64)
}

// driveInvokes keeps a bounded window of invocations outstanding, so every
// event loop stays saturated without flooding queues, until b.N complete.
func driveInvokes(b *testing.B, ctx context.Context, cp controlPlane, window int) {
	if window > b.N {
		window = b.N
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	submitted := 0
	for submitted < window {
		if _, err := cp.Invoke("bench", "echo", []byte("x")); err != nil {
			b.Fatal(err)
		}
		submitted++
	}
	for done := 0; done < b.N; done++ {
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		res, err := cp.Wait(wctx)
		wcancel()
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("invocation failed: %+v", res)
		}
		if submitted < b.N {
			if _, err := cp.Invoke("bench", "echo", []byte("x")); err != nil {
				b.Fatal(err)
			}
			submitted++
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "tasks/s")
}

// waitLibraryReadyB polls shard s's manager until its library instance is
// ready.
func waitLibraryReadyB(b *testing.B, m *core.Manager, s int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range m.Trace().Events() {
			if e.Kind == trace.LibraryReady {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatalf("library never became ready on shard %d", s)
}
