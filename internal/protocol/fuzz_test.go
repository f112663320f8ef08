package protocol

import (
	"io"
	"net"
	"testing"
	"time"
)

// FuzzRecv feeds arbitrary bytes to the message decoder: it must never
// panic or hang, only return messages or errors, and it must accept nothing
// from a stream whose first byte is not the frame magic. The JSON seeds are
// lines of the retired framing, kept as inputs that must be rejected.
func FuzzRecv(f *testing.F) {
	f.Add([]byte(`{"type":"heartbeat"}` + "\n"))
	f.Add([]byte(`{"type":"put","cache_name":"x","size":3,"payload":true}` + "\nabc"))
	f.Add([]byte(`{"type":"put","size":-5,"payload":true}` + "\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(`{"type":"task","spec":{"id":1,"kind":0,"command":"x"}}` + "\n"))
	f.Add([]byte{0, 1, 2, '\n', 0xff})
	// Binary framing seeds: well-formed frames plus truncated/corrupt ones.
	f.Add(binaryFrame(&Message{Type: TypeHeartbeat}, nil))
	f.Add(binaryFrame(&Message{Type: TypePut, CacheName: "x", Size: 3}, []byte("abc")))
	f.Add(binaryFrame(&Message{Type: TypeTask, TaskID: 5}, nil)[:7])
	f.Add([]byte{frameMagic, frameVersion, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameMagic, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append(binaryFrame(&Message{Type: TypeGet, CacheName: "y", Offset: 8, Total: 64}, nil),
		binaryFrame(&Message{Type: TypeRelease}, nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		defer a.Close()
		conn := NewConn(b)
		defer conn.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				m, payload, err := conn.Recv()
				if err != nil {
					return
				}
				if data[0] != frameMagic {
					t.Errorf("decoded %+v from a stream starting %#02x", m, data[0])
				}
				if m.Payload && payload != nil {
					io.Copy(io.Discard, payload)
				}
			}
		}()
		a.Write(data)
		a.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("decoder hung")
		}
	})
}

// binaryFrame renders one binary frame (header + optional payload) as raw
// bytes, for fuzz seeds.
func binaryFrame(m *Message, payload []byte) []byte {
	h := encodeMessage(nil, m)
	out := make([]byte, framePrologueLen, framePrologueLen+len(h)+len(payload))
	out[0] = frameMagic
	out[1] = frameVersion
	if payload != nil {
		out[2] = frameFlagPayload
	}
	out[3] = byte(len(h) >> 24)
	out[4] = byte(len(h) >> 16)
	out[5] = byte(len(h) >> 8)
	out[6] = byte(len(h))
	if payload != nil {
		n := uint64(len(payload))
		for i := 0; i < 8; i++ {
			out[7+i] = byte(n >> (56 - 8*i))
		}
	}
	out = append(out, h...)
	return append(out, payload...)
}

// FuzzBinaryDecode throws arbitrary bytes at the frame-header decoder
// directly: it must only ever return a message or an error.
func FuzzBinaryDecode(f *testing.F) {
	f.Add(encodeMessage(nil, &Message{Type: TypeHeartbeat}))
	f.Add(encodeMessage(nil, &Message{Type: TypeGet, CacheName: "x", Offset: 1, Total: 2,
		PeerAddrs: []string{"a:1", "b:2"}}))
	f.Add([]byte{0x03, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeMessage(data)
	})
}

// FuzzBinaryRoundTrip checks encode→decode identity over fuzz-built field
// combinations.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add("put", "w1", "file-x", int64(9), int64(3), int64(12))
	f.Add("get", "", "", int64(-1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, typ, workerID, cacheName string, size, offset, total int64) {
		sent := &Message{Type: typ, WorkerID: workerID, CacheName: cacheName,
			Size: size, Offset: offset, Total: total}
		got, err := decodeMessage(encodeMessage(nil, sent))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.Type != typ || got.WorkerID != workerID || got.CacheName != cacheName ||
			got.Size != size || got.Offset != offset || got.Total != total {
			t.Fatalf("got %+v want %+v", got, sent)
		}
	})
}
