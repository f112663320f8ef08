// Package protocol is a stub wire layer: the eventblock analyzer
// special-cases Conn's bulk methods and Dial by package path.
package protocol

import "io"

// Message is one control frame.
type Message struct {
	Type string
}

// Conn is one wire connection.
type Conn struct{}

// Recv blocks until a frame arrives.
func (c *Conn) Recv() (*Message, error) { return nil, nil }

// Send queues one control frame for the connection's writer goroutine
// and returns without I/O.
func (c *Conn) Send(m *Message) error { return nil }

// SendPayload queues a header and its bulk payload and waits until the
// payload has streamed.
func (c *Conn) SendPayload(m *Message, r io.Reader) error { return nil }

// Dial opens a connection.
func Dial(addr string) (*Conn, error) { return &Conn{}, nil }
