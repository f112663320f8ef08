package worker

// Tests for the streaming transfer path: part-file cache inserts that keep
// unverified bytes off the final cache path, byte-counted directory
// payloads, and chunk-parallel fetches of large objects from multiple
// replicas with single-stream fallback.

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskvine/internal/protocol"
	"taskvine/internal/tardir"
	"taskvine/internal/taskspec"
)

// miniDirSpec builds a MiniTask that materializes a small directory object.
func miniDirSpec(fileID string) *taskspec.Spec {
	spec := &taskspec.Spec{Kind: taskspec.KindMini, Command: "mkdir -p output && echo deep > output/f"}
	spec.Outputs = []taskspec.Mount{{FileID: fileID, Name: "output"}}
	return spec
}

// assertNoPartLitter fails if any .part- temporary survives in the
// worker's cache directory.
func assertNoPartLitter(t *testing.T, w *Worker) {
	t.Helper()
	dir := filepath.Dir(w.cache.Path("probe"))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".part-") {
			t.Fatalf("part file %s left in cache dir", e.Name())
		}
	}
}

// TestChaosKilledFetchLeavesNoFinalPathFile kills the serving peer halfway
// through the payload and verifies the fundamental cache-insert invariant:
// nothing — complete or truncated — may exist at the object's final cache
// path unless the transfer verified end to end. A file there would be
// adopted as a worker-lifetime object by the next worker on this node.
func TestChaosKilledFetchLeavesNoFinalPathFile(t *testing.T) {
	payload := bytes.Repeat([]byte("k"), 8192)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := protocol.NewConn(nc)
			if _, _, err := c.Recv(); err != nil {
				c.Close()
				continue
			}
			writeRawHeader(nc, &protocol.Message{Type: protocol.TypeData, CacheName: "killed-obj", Size: int64(len(payload)), Payload: true})
			nc.Write(payload[:len(payload)/2])
			c.Close() // killed mid-transfer
		}
	}()

	f := startFake(t)
	w := startWorkerCfg(t, f, func(c *Config) {
		c.PeerFetchRetries = 1
	})
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "killed-obj",
		PeerAddr: ln.Addr().String(), Size: int64(len(payload)), TransferID: "t-killed",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "killed-obj"
	})
	if up.Status != protocol.StatusFailed {
		t.Fatalf("killed fetch reported %+v", up)
	}
	if _, err := os.Stat(w.cache.Path("killed-obj")); !os.IsNotExist(err) {
		t.Fatalf("killed fetch left a file at the final cache path (stat err=%v)", err)
	}
	assertNoPartLitter(t, w)
}

// writeRawHeader writes a JSON-framed header straight to the socket, for
// fakes that must follow it with a broken payload: a Conn only sends
// payloads that are whole, and nothing else may write under it.
func writeRawHeader(nc net.Conn, m *protocol.Message) {
	hdr, _ := json.Marshal(m)
	nc.Write(append(hdr, '\n'))
}

// TestChaosDirShortTarNotCommitted serves a directory payload whose tar
// stream is complete (the unpacker succeeds) but shorter than the
// advertised size. The transport-level byte count must fail the fetch:
// before it was counted, the worker committed whatever the truncated
// stream contained and reported the advertised size as delivered.
func TestChaosDirShortTarNotCommitted(t *testing.T) {
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "member"), []byte("short tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := tardir.Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := protocol.NewConn(nc)
			if _, _, err := c.Recv(); err != nil {
				c.Close()
				continue
			}
			// Promise more than the archive holds, then hang up: a valid
			// end-of-archive marker arrives before the advertised size does.
			writeRawHeader(nc, &protocol.Message{
				Type: protocol.TypeData, CacheName: "short-tree",
				Size: int64(len(blob)) + 512, Dir: true, Payload: true,
			})
			nc.Write(blob)
			c.Close()
		}
	}()

	f := startFake(t)
	w := startWorkerCfg(t, f, func(c *Config) {
		c.PeerFetchRetries = -1
	})
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "short-tree",
		PeerAddr: ln.Addr().String(), Size: int64(len(blob)) + 512, TransferID: "t-short",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "short-tree"
	})
	if up.Status != protocol.StatusFailed || !strings.Contains(up.Error, "of") {
		t.Fatalf("short dir payload reported %+v", up)
	}
	if _, err := os.Stat(w.cache.Path("short-tree")); !os.IsNotExist(err) {
		t.Fatalf("short dir payload left a tree at the final cache path (stat err=%v)", err)
	}
	assertNoPartLitter(t, w)
}

// chunkPattern builds a deterministic byte string whose content varies by
// position, so a chunk written at the wrong offset corrupts the result.
func chunkPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (i/997)%26)
	}
	return b
}

// TestChunkedFetchFromMultipleReplicas stages one object on two holders and
// fetches it with both named as sources and a tiny chunk threshold: the
// fetch must split into ranged requests served by both peers and reassemble
// byte-identical content.
func TestChunkedFetchFromMultipleReplicas(t *testing.T) {
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "holder-a" })
	fb := startFake(t)
	wb := startWorkerCfg(t, fb, func(c *Config) { c.ID = "holder-b" })
	fc := startFake(t)
	startWorkerCfg(t, fc, func(c *Config) {
		c.ID = "fetcher"
		c.ChunkThreshold = 1024
		c.MaxFetchChunks = 2
	})

	data := chunkPattern(64 * 1024)
	stage(t, fa, "wide-obj", data)
	stage(t, fb, "wide-obj", data)

	fc.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "wide-obj",
		PeerAddr: wa.PeerAddr(), PeerAddrs: []string{wb.PeerAddr()},
		Size: int64(len(data)), Total: int64(len(data)), TransferID: "t-wide",
	})
	up, _ := fc.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "wide-obj"
	})
	if up.Status != protocol.StatusOK || up.Size != int64(len(data)) {
		t.Fatalf("chunked fetch reported %+v", up)
	}
	fc.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "wide-obj"})
	_, body := fc.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if !bytes.Equal(body, data) {
		t.Fatalf("chunked content differs: got %d bytes, want %d", len(body), len(data))
	}
	// Both replicas must have carried part of the load.
	if wa.vm.PeerServes.Value() == 0 || wb.vm.PeerServes.Value() == 0 {
		t.Fatalf("serves: holder-a=%d holder-b=%d; want both > 0",
			wa.vm.PeerServes.Value(), wb.vm.PeerServes.Value())
	}
}

// TestChunkedFetchFallsBackToSingleStream names a dead alternate source:
// the chunked attempt fails on its range, and the fetch must quietly fall
// back to a whole-object stream from the primary.
func TestChunkedFetchFallsBackToSingleStream(t *testing.T) {
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "holder" })
	fb := startFake(t)
	startWorkerCfg(t, fb, func(c *Config) {
		c.ID = "fetcher"
		c.ChunkThreshold = 1024
	})

	data := chunkPattern(16 * 1024)
	stage(t, fa, "limp-obj", data)

	fb.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "limp-obj",
		PeerAddr: wa.PeerAddr(), PeerAddrs: []string{"127.0.0.1:1"},
		Size: int64(len(data)), Total: int64(len(data)), TransferID: "t-limp",
	})
	up, _ := fb.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "limp-obj"
	})
	if up.Status != protocol.StatusOK {
		t.Fatalf("fallback fetch reported %+v", up)
	}
	fb.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "limp-obj"})
	_, body := fb.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if !bytes.Equal(body, data) {
		t.Fatalf("fallback content differs: got %d bytes, want %d", len(body), len(data))
	}
}

// TestRangedServeRefusesDirectories: a ranged get of a directory object is
// an error, never a slice of an unstable tar packing.
func TestRangedServeRefusesDirectories(t *testing.T) {
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "dir-holder" })

	// Materialize a directory object at the holder.
	spec := miniDirSpec("ranged-tree")
	fa.conn.Send(&protocol.Message{Type: protocol.TypeMini, CacheName: "ranged-tree", Spec: spec, Lifetime: 1})
	fa.recvUntil(t, "mini done", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "ranged-tree" && m.Status == protocol.StatusOK
	})

	conn, err := protocol.Dial(wa.PeerAddr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "ranged-tree", Offset: 0, Size: 10, Total: 100})
	m, _, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != protocol.TypeError || !strings.Contains(m.Error, "directory") {
		t.Fatalf("ranged get of a directory answered %+v", m)
	}
}

// TestRangedServeChecksRange: out-of-bounds windows and stale totals are
// refused before any bytes move.
func TestRangedServeChecksRange(t *testing.T) {
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "range-holder" })
	data := []byte("exactly thirty-three bytes long!!")
	stage(t, fa, "bounded-obj", data)

	for _, bad := range []*protocol.Message{
		{Type: protocol.TypeGet, CacheName: "bounded-obj", Offset: 30, Size: 10, Total: int64(len(data))},
		{Type: protocol.TypeGet, CacheName: "bounded-obj", Offset: 0, Size: 10, Total: int64(len(data)) + 1},
		{Type: protocol.TypeGet, CacheName: "bounded-obj", Offset: -1, Size: 4, Total: int64(len(data))},
	} {
		conn, err := protocol.Dial(wa.PeerAddr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		conn.Send(bad)
		m, _, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if m.Type != protocol.TypeError {
			t.Fatalf("bad range %+v answered %+v", bad, m)
		}
	}
}
