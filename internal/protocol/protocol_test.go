package protocol

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// pipePair returns two Conns joined by an in-memory duplex pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestControlRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	sent := &Message{
		Type:         TypeRegister,
		WorkerID:     "w1",
		TransferAddr: "127.0.0.1:9999",
		Capacity:     &resources.R{Cores: 4, Memory: 16 * resources.GB},
	}
	go func() {
		if err := ca.Send(sent); err != nil {
			t.Error(err)
		}
	}()
	got, payload, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		t.Fatal("control message carried payload")
	}
	if got.Type != TypeRegister || got.WorkerID != "w1" || got.Capacity.Cores != 4 {
		t.Fatalf("got %+v", got)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	data := bytes.Repeat([]byte("0123456789"), 1000)
	go func() {
		m := &Message{Type: TypePut, CacheName: "file-abc", Size: int64(len(data))}
		if err := ca.SendPayload(m, bytes.NewReader(data)); err != nil {
			t.Error(err)
		}
	}()
	got, payload, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypePut || !got.Payload || got.Size != int64(len(data)) {
		t.Fatalf("header = %+v", got)
	}
	body, err := io.ReadAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, data) {
		t.Fatalf("payload corrupted: got %d bytes", len(body))
	}
}

func TestBackToBackMessages(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "a", Size: 3}, strings.NewReader("AAA"))
		ca.Send(&Message{Type: TypeHeartbeat})
		ca.SendPayload(&Message{Type: TypePut, CacheName: "b", Size: 2}, strings.NewReader("BB"))
	}()
	m1, p1, err := cb.Recv()
	if err != nil || m1.CacheName != "a" {
		t.Fatalf("m1=%+v err=%v", m1, err)
	}
	b1, _ := io.ReadAll(p1)
	if string(b1) != "AAA" {
		t.Fatalf("p1=%q", b1)
	}
	m2, _, err := cb.Recv()
	if err != nil || m2.Type != TypeHeartbeat {
		t.Fatalf("m2=%+v err=%v", m2, err)
	}
	m3, p3, err := cb.Recv()
	if err != nil || m3.CacheName != "b" {
		t.Fatalf("m3=%+v err=%v", m3, err)
	}
	b3, _ := io.ReadAll(p3)
	if string(b3) != "BB" {
		t.Fatalf("p3=%q", b3)
	}
}

func TestAbandonedPayloadIsDrained(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: 5000},
			bytes.NewReader(make([]byte, 5000)))
		ca.Send(&Message{Type: TypeHeartbeat})
	}()
	if _, _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	// Do not read the payload; the next Recv must skip it.
	m, _, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeHeartbeat {
		t.Fatalf("got %+v", m)
	}
}

func TestPartiallyReadPayloadIsDrained(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: 1000},
			bytes.NewReader(make([]byte, 1000)))
		ca.Send(&Message{Type: TypeHeartbeat})
	}()
	_, p, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, p, 100); err != nil {
		t.Fatal(err)
	}
	m, _, err := cb.Recv()
	if err != nil || m.Type != TypeHeartbeat {
		t.Fatalf("m=%+v err=%v", m, err)
	}
}

func TestShortPayloadRejected(t *testing.T) {
	ca, _ := pipePair(t)
	errc := make(chan error, 1)
	go func() {
		errc <- ca.SendPayload(&Message{Type: TypePut, Size: 100}, strings.NewReader("short"))
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("short payload accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendPayload hung on short payload")
	}
}

func TestTaskSpecOverWire(t *testing.T) {
	ca, cb := pipePair(t)
	spec := &taskspec.Spec{
		ID:      7,
		Kind:    taskspec.KindCommand,
		Command: "blast -db landmark -q query",
		Env:     map[string]string{"BLASTDB": "landmark"},
		Resources: resources.R{
			Cores: 4,
		},
	}
	spec.AddInput("url-db", "landmark")
	spec.AddOutput("temp-out", "results.txt")
	go func() {
		if err := ca.Send(&Message{Type: TypeTask, TaskID: 7, Spec: spec}); err != nil {
			t.Error(err)
		}
	}()
	got, _, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec == nil || got.Spec.Command != spec.Command ||
		len(got.Spec.Inputs) != 1 || got.Spec.Env["BLASTDB"] != "landmark" {
		t.Fatalf("spec did not survive the wire: %+v", got.Spec)
	}
}

// TestMalformedMessage: a JSON line, the retired framing, is not a frame.
// Recv refuses it at the first byte and names that byte.
func TestMalformedMessage(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	cb := NewConn(b)
	defer cb.Close()
	go a.Write([]byte(`{"type":"heartbeat"}` + "\n"))
	cb.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err := cb.Recv()
	if err == nil {
		t.Fatal("JSON line accepted")
	}
	if !strings.Contains(err.Error(), "0x7b") {
		t.Fatalf("error %q does not name the offending byte", err)
	}
}

// TestConcurrentSendersDoNotInterleave: concurrent senders mixing Send
// and SendPayload each see their frames decoded in the order they queued
// them, with every payload intact behind its own header.
func TestConcurrentSendersDoNotInterleave(t *testing.T) {
	ca, cb := pipePair(t)
	// Lost or interleaved bytes surface as a decode error or a stalled
	// read; the deadline turns the latter into a failure.
	cb.SetReadDeadline(time.Now().Add(10 * time.Second))
	const senders, perSender = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s%d", s)
			for i := 1; i <= perSender; i++ {
				m := &Message{Type: TypeHeartbeat, WorkerID: id, TaskID: i}
				var err error
				if i%3 == 0 {
					body := bytes.Repeat([]byte{byte(s), byte(i)}, 100*i)
					m.Type, m.Size = TypePut, int64(len(body))
					err = ca.SendPayload(m, bytes.NewReader(body))
				} else {
					err = ca.Send(m)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	last := map[string]int{}
	for n := 0; n < senders*perSender; n++ {
		m, p, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.TaskID != last[m.WorkerID]+1 {
			t.Fatalf("%s: frame %d after %d", m.WorkerID, m.TaskID, last[m.WorkerID])
		}
		last[m.WorkerID] = m.TaskID
		if m.Type == TypePut {
			body, err := io.ReadAll(p)
			var s int
			fmt.Sscanf(m.WorkerID, "s%d", &s)
			want := bytes.Repeat([]byte{byte(s), byte(m.TaskID)}, 100*m.TaskID)
			if err != nil || !bytes.Equal(body, want) {
				t.Fatalf("%s frame %d: payload of %d bytes corrupted (err %v)", m.WorkerID, m.TaskID, len(body), err)
			}
		}
	}
	wg.Wait()
}

func TestDialRealSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		defer c.Close()
		m, _, err := c.Recv()
		if err == nil {
			m.Status = "echoed"
			c.Send(m)
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Message{Type: TypeHeartbeat, WorkerID: "w9"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.WorkerID != "w9" || got.Status != "echoed" {
		t.Fatalf("echo mismatch: %+v", got)
	}
}
