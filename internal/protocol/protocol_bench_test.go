package protocol

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// benchEcho dials a loopback echo server and returns the client side. When
// binary is set, both directions use binary framing — the plane a modern
// manager/worker pair negotiates at register time; otherwise the legacy
// JSON line protocol.
func benchEcho(b *testing.B, binary bool) *Conn {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	ready := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		defer c.Close()
		if binary {
			c.EnableBinary()
		}
		close(ready)
		for {
			m, payload, err := c.Recv()
			if err != nil {
				return
			}
			if m.Payload {
				io.Copy(io.Discard, payload)
				if err := c.Send(&Message{Type: TypeCacheUpdate, Status: StatusOK}); err != nil {
					return
				}
				continue
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	client, err := Dial(ln.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	if binary {
		client.EnableBinary()
	}
	<-ready
	return client
}

func benchRoundTrip(b *testing.B, binary bool) {
	client := benchEcho(b, binary)
	msg := &Message{Type: TypeHeartbeat, WorkerID: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlMessageRoundTrip measures manager↔worker control message
// latency over a real loopback socket — the cost floor of the "millisecond
// per task" dispatch budget discussed in §6 — on the default (binary)
// frame plane.
func BenchmarkControlMessageRoundTrip(b *testing.B) { benchRoundTrip(b, true) }

// BenchmarkControlMessageRoundTripJSON is the same round trip on the
// legacy JSON line protocol, the fallback plane for old peers and netcat
// debugging.
func BenchmarkControlMessageRoundTripJSON(b *testing.B) { benchRoundTrip(b, false) }

func benchPayload(b *testing.B, binary bool) {
	const size = 4 << 20
	data := bytes.Repeat([]byte{0xAB}, size)
	client := benchEcho(b, binary)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &Message{Type: TypePut, CacheName: "bench", Size: size}
		if err := client.SendPayload(m, bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayloadThroughput measures bulk object movement through the
// default (binary) framing over loopback.
func BenchmarkPayloadThroughput(b *testing.B) { benchPayload(b, true) }

// BenchmarkPayloadThroughputJSON is the same bulk movement on the legacy
// JSON line protocol.
func BenchmarkPayloadThroughputJSON(b *testing.B) { benchPayload(b, false) }

// BenchmarkBinaryEncode measures pure codec cost for a representative
// control message, without socket I/O.
func BenchmarkBinaryEncode(b *testing.B) {
	m := &Message{
		Type: TypeCacheUpdate, WorkerID: "worker-0042", CacheName: "file-abcdef",
		Size: 123456789, TransferID: "t-0099", Status: StatusOK,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := encodeMessage(nil, m)
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkBinaryDecode measures pure decode cost for the same message.
func BenchmarkBinaryDecode(b *testing.B) {
	m := &Message{
		Type: TypeCacheUpdate, WorkerID: "worker-0042", CacheName: "file-abcdef",
		Size: 123456789, TransferID: "t-0099", Status: StatusOK,
	}
	buf := encodeMessage(nil, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}
