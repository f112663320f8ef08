package core

// Tests for the wire protocol at the manager's edges: input that is not a
// frame is refused by the manager and by a worker's peer server, large data
// payloads travel through the disk spool rather than memory, and oversized
// control frames are rejected without allocation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
)

// TestMalformedMessage sends a JSON line, the retired framing, to the
// manager's listener and to a worker's peer server. Each must refuse it and
// close the connection rather than hang, and both keep serving: a task
// whose output is fetched back from the worker still completes.
func TestMalformedMessage(t *testing.T) {
	h := newHarness(t, 1, Config{})
	waitWorkers(t, h.m, 1)
	for _, target := range []struct{ name, addr string }{
		{"manager", h.m.Addr()},
		{"peer server", h.m.Status().Workers[0].TransferAddr},
	} {
		nc, err := net.Dial("tcp", target.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write([]byte(`{"type":"heartbeat"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := nc.Read(make([]byte, 64))
		nc.Close()
		if err == nil {
			t.Fatalf("%s answered a JSON line with %d bytes", target.name, n)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s kept the connection open after a JSON line", target.name)
		}
		if !errors.Is(err, io.EOF) && !strings.Contains(err.Error(), "reset") {
			t.Fatalf("%s: read after a JSON line: %v", target.name, err)
		}
	}
	in, err := h.m.Files().DeclareBuffer([]byte("still framing"), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	out := h.m.Files().DeclareTemp()
	spec := command("tr a-z A-Z < in > out")
	spec.AddInput(in.ID, "in")
	spec.AddOutput(out.ID, "out")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, h.m); !r.OK {
		t.Fatalf("task failed after the malformed connections: %+v", r)
	}
	got, err := h.m.FetchFile(context.Background(), out.ID)
	if err != nil || string(got) != "STILL FRAMING" {
		t.Fatalf("fetched %q, %v", got, err)
	}
}

// TestSpooledLargePayloadRoundTrip fetches an object larger than the spool
// threshold: the payload must stream through the manager's disk spool
// (checksummed on the way) and come back byte-identical, with no spool
// temp files leaked.
func TestSpooledLargePayloadRoundTrip(t *testing.T) {
	h := newHarness(t, 1, Config{})
	const n = 2 * spoolThreshold
	out := h.m.Files().DeclareTemp()
	spec := command(fmt.Sprintf("yes x | head -c %d > out", n))
	spec.AddOutput(out.ID, "out")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("producer failed: %+v", r)
	}
	got, err := h.m.FetchFile(context.Background(), out.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fetched %d bytes, want %d", len(got), n)
	}
	if !bytes.Equal(got[:4], []byte("x\nx\n")) || !bytes.Equal(got[n-2:], []byte("x\n")) {
		t.Fatalf("fetched content corrupt at edges: %q ... %q", got[:4], got[n-2:])
	}
}

// TestOversizedControlFrameRejected sends a control message whose claimed
// payload size exceeds MaxControlPayload. The manager must answer with an
// error frame instead of allocating the attacker-controlled size, and the
// connection must survive to reject a second attempt the same way.
func TestOversizedControlFrameRejected(t *testing.T) {
	h := newHarness(t, 0, Config{})
	conn, err := protocol.Dial(h.m.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeRegister, WorkerID: "rogue",
		Capacity: &resources.R{Cores: 1},
	}); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, protocol.MaxControlPayload+1)
	for i := 0; i < 2; i++ {
		errc := make(chan error, 1)
		go func() {
			errc <- conn.SendPayload(&protocol.Message{
				Type: protocol.TypeComplete, TaskID: 1, CacheName: "bomb",
				Size: int64(len(huge)),
			}, bytes.NewReader(huge))
		}()
		m, _, err := conn.Recv()
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if m.Type != protocol.TypeError || !strings.Contains(m.Error, "exceeds limit") {
			t.Fatalf("attempt %d answered %+v", i, m)
		}
		if err := <-errc; err != nil {
			t.Fatalf("attempt %d send: %v", i, err)
		}
	}
}
