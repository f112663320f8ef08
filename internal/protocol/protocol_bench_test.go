package protocol

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// benchEcho dials a loopback echo server and returns the client side.
func benchEcho(b *testing.B) *Conn {
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
	<-ready
	return client
}

// BenchmarkControlMessageRoundTrip measures manager↔worker control message
// latency over a real loopback socket — the cost floor of the "millisecond
// per task" dispatch budget discussed in §6.
func BenchmarkControlMessageRoundTrip(b *testing.B) {
	client := benchEcho(b)
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

// BenchmarkPayloadThroughput measures bulk object movement over loopback.
func BenchmarkPayloadThroughput(b *testing.B) {
	const size = 4 << 20
	data := bytes.Repeat([]byte{0xAB}, size)
	client := benchEcho(b)
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
