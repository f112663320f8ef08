// Package core is the fixture manager side for the eventblock analyzer:
// handleEvent is a loop root, and every function synchronously reachable
// from it is on the hot path unless reached through a go statement.
package core

import (
	"os"
	"time"

	"eventblock/internal/protocol"
)

// Manager mirrors the real manager's single-threaded event loop shape.
type Manager struct {
	events chan int
	out    chan int
	conn   *protocol.Conn
}

// handleEvent is the loop body; it must never block.
func (m *Manager) handleEvent(ev int) {
	time.Sleep(time.Millisecond) // want:eventblock "time.Sleep in handleEvent is synchronously reachable from the handleEvent loop"
	m.out <- ev                  // want:eventblock "channel send in handleEvent may block the handleEvent loop"
	select {
	case m.out <- ev: // non-blocking by construction: the select has a default
	default:
	}
	m.persist()
	m.stream()
	m.cleanup()
	m.reply(make(chan int, 1))
	m.deliverSpool(&spool{path: "vine-spool-1"})
	go m.slowWork() // handed to another goroutine: the sanctioned fix
}

// persist is reachable synchronously, so its file I/O is flagged even
// though the call is one hop below the root.
func (m *Manager) persist() {
	_, _ = os.Create("state") // want:eventblock "os.Create in persist is synchronously reachable from the handleEvent loop"
}

// stream ships a bulk payload and dials a peer, neither of which is ever
// loop-safe; the control-frame Send is permitted because it only enqueues.
func (m *Manager) stream() {
	_ = m.conn.SendPayload(&protocol.Message{}, nil) // want:eventblock "protocol SendPayload (bulk transfer) in stream is synchronously reachable from the handleEvent loop"
	_, _ = protocol.Dial("peer:9000")                // want:eventblock "protocol Dial in stream is synchronously reachable from the handleEvent loop"
	_ = m.conn.Send(&protocol.Message{})             // enqueue only: allowed
}

// cleanup's removal is bounded and carries the annotation escape hatch.
func (m *Manager) cleanup() {
	_ = os.Remove("tombstone") // eventloop-ok: single bounded unlink per completed task
}

// reply sends on a caller-supplied channel: the caller sized it, so the
// send is the caller's latency contract.
func (m *Manager) reply(ch chan int) {
	ch <- 1
}

// slowWork is reached only through a go statement, so blocking here is
// invisible to the loop.
func (m *Manager) slowWork() {
	_, _ = os.ReadFile("big")
}

// spool models a disk-spooled large payload: the reader goroutine streams
// the body to a temp file before the event reaches the loop, so the loop
// only ever touches metadata — and must hand the unlink back to a
// background goroutine.
type spool struct{ path string }

// release unlinks the spool file; reached only through go statements.
func (s *spool) release() {
	_ = os.Remove(s.path)
}

// deliverSpool is the loop-side half of the spooling path: comparing
// checksum strings is fine, removing the spool file synchronously is not.
func (m *Manager) deliverSpool(s *spool) {
	if s.path == "" {
		return
	}
	_ = os.Remove(s.path) // want:eventblock "os.Remove in deliverSpool is synchronously reachable from the handleEvent loop"
	go s.release()        // the sanctioned shape: refcount, then unlink off-loop
}
