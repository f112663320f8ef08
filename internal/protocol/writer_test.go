package protocol

// Tests for the outbound queue: ordering across senders and payloads,
// coalescing, the close-drain rule, and sticky failure. Run under -race.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// waitStalled waits until c's writer is blocked in a socket write.
func waitStalled(t *testing.T, c *Conn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.WriteStalled() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never blocked on the unread pipe")
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedReader yields its data only after release is closed, and reports
// on started when the writer first reads it.
type gatedReader struct {
	r       io.Reader
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedReader) Read(p []byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return g.r.Read(p)
}

// TestFramesQueueBehindPayload: frames queued while a payload is still
// streaming go out after it, so the payload stays contiguous behind its
// header.
func TestFramesQueueBehindPayload(t *testing.T) {
	ca, cb := pipePair(t)
	body := bytes.Repeat([]byte("p"), 200<<10)
	g := &gatedReader{r: bytes.NewReader(body), started: make(chan struct{}), release: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		errc <- ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: int64(len(body))}, g)
	}()
	<-g.started
	for i := 1; i <= 3; i++ {
		if err := ca.Send(&Message{Type: TypeHeartbeat, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	m, p, err := cb.Recv()
	if err != nil || m.CacheName != "big" {
		t.Fatalf("first frame = %+v, err %v", m, err)
	}
	got, err := io.ReadAll(p)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("payload: %d bytes, err %v", len(got), err)
	}
	for i := 1; i <= 3; i++ {
		m, _, err := cb.Recv()
		if err != nil || m.TaskID != i {
			t.Fatalf("frame %d = %+v, err %v", i, m, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestQueuedFramesCoalesce: frames queued while the writer is blocked go
// out together in its next write.
func TestQueuedFramesCoalesce(t *testing.T) {
	ca, cb := pipePair(t)
	const n = 20
	if err := ca.Send(&Message{Type: TypeHeartbeat, TaskID: 1}); err != nil {
		t.Fatal(err)
	}
	waitStalled(t, ca) // nobody reads the pipe yet
	for i := 2; i <= n; i++ {
		if err := ca.Send(&Message{Type: TypeHeartbeat, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		if m, _, err := cb.Recv(); err != nil || m.TaskID != i {
			t.Fatalf("frame %d = %+v, err %v", i, m, err)
		}
	}
	// The counters move when a write returns, just after the peer has
	// the bytes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		writes, frames := ca.WriteStats()
		if writes == 2 && frames == n {
			return
		}
		if writes > 2 || time.Now().After(deadline) {
			t.Fatalf("WriteStats = %d writes, %d frames; want 2 writes carrying %d frames", writes, frames, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDeliversQueuedFrames: Close writes out every frame queued
// before it, then closes, and later sends fail.
func TestCloseDeliversQueuedFrames(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer cb.Close()
	const n = 100
	for i := 1; i <= n; i++ {
		if err := ca.Send(&Message{Type: TypeRelease, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- ca.Close() }()
	for i := 1; i <= n; i++ {
		if m, _, err := cb.Recv(); err != nil || m.TaskID != i {
			t.Fatalf("frame %d = %+v, err %v", i, m, err)
		}
	}
	if _, _, err := cb.Recv(); err == nil {
		t.Fatal("connection still open after Close")
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(&Message{Type: TypeHeartbeat}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

// TestCloseBoundedByUnreadPeer: a peer that never reads holds Close for
// the drain deadline at most.
func TestCloseBoundedByUnreadPeer(t *testing.T) {
	ca, _ := pipePair(t)
	if err := ca.Send(&Message{Type: TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	waitStalled(t, ca)
	start := time.Now()
	ca.Close()
	if d := time.Since(start); d > closeDrainTimeout+time.Second {
		t.Fatalf("Close took %v against an unread peer", d)
	}
}

// TestWriteFailureIsSticky: once a write fails, the connection is closed
// and every later send, plain or with a payload, returns that error.
func TestWriteFailureIsSticky(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a)
	defer ca.Close()
	b.Close()
	var first error
	deadline := time.Now().Add(5 * time.Second)
	for first == nil {
		if time.Now().After(deadline) {
			t.Fatal("writes to a closed peer never failed")
		}
		first = ca.Send(&Message{Type: TypeHeartbeat})
		time.Sleep(time.Millisecond)
	}
	if err := ca.Send(&Message{Type: TypeHeartbeat}); !errors.Is(err, first) {
		t.Fatalf("Send after failure = %v, want %v", err, first)
	}
	if err := ca.SendPayload(&Message{Type: TypePut, Size: 1}, bytes.NewReader([]byte("x"))); !errors.Is(err, first) {
		t.Fatalf("SendPayload after failure = %v, want %v", err, first)
	}
	if _, _, err := ca.Recv(); err == nil {
		t.Fatal("failed connection still readable")
	}
}
