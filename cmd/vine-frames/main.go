// Command vine-frames decodes a captured TaskVine byte stream and prints
// one JSON object per frame, for debugging the wire. The input is one
// direction of a manager or peer connection, from its first byte, as saved
// by a packet capture or a tee. A frame's payload is skipped; the object
// shows it as "payload": true with its "size".
//
// Usage:
//
//	vine-frames < capture.bin
//
// It exits 0 at the end of a whole stream. If the stream is malformed or
// ends inside a frame, it prints the frames before the fault, reports the
// fault on stderr, and exits 1.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"

	"taskvine/internal/protocol"
)

func main() {
	if err := decode(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vine-frames:", err)
		os.Exit(1)
	}
}

// decode writes every frame read from in as one JSON line to out. The
// frames are parsed by protocol.Conn.Recv over an in-memory pipe, so the
// tool accepts exactly what a manager or worker would.
func decode(in io.Reader, out io.Writer) error {
	feed, sink := net.Pipe()
	conn := protocol.NewConn(sink)
	// Closing the connection also ends the copy below if decoding stops
	// before the input does.
	defer conn.Close()
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(feed, in)
		feed.Close()
		copied <- err
	}()
	enc := json.NewEncoder(out)
	for {
		m, _, err := conn.Recv()
		if err == io.EOF {
			// The input ended between frames; a failed read of it is
			// still an error.
			return <-copied
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
}
