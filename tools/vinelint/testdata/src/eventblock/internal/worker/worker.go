// Package worker is the fixture worker side: readLoop is the loop root,
// and its own Recv is the pump itself, not a finding.
package worker

import "eventblock/internal/protocol"

// Worker mirrors the real worker's connection read loop.
type Worker struct {
	conn *protocol.Conn
}

// readLoop pumps messages; the root's own Recv is exempt.
func (w *Worker) readLoop() {
	for {
		m, err := w.conn.Recv()
		if err != nil {
			return
		}
		w.forward(m)
	}
}

// forward re-reads from the connection and streams a payload, both of
// which stall the pump while it should be draining control messages.
func (w *Worker) forward(m *protocol.Message) {
	_, _ = w.conn.Recv()           // want:eventblock "protocol Recv in forward is synchronously reachable from the readLoop loop"
	_ = w.conn.SendPayload(m, nil) // want:eventblock "protocol SendPayload (bulk transfer) in forward is synchronously reachable from the readLoop loop"
	w.reply(m)
	go w.serveGet(m)
}

// reply answers on the loop: Send only enqueues the frame for the
// connection's writer, so it never blocks the pump, and the message may be
// reused as soon as Send returns. Dialling a peer from here still blocks.
func (w *Worker) reply(m *protocol.Message) {
	_ = w.conn.Send(m)
	m.Type = "heartbeat"
	_ = w.conn.Send(m)
	_, _ = protocol.Dial("peer:9000") // want:eventblock "protocol Dial in reply is synchronously reachable from the readLoop loop"
}

// serveGet streams an object back off the loop: the sanctioned home of a
// SendPayload.
func (w *Worker) serveGet(m *protocol.Message) {
	_ = w.conn.SendPayload(m, nil)
}
