package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"taskvine/internal/protocol"
)

// capture returns the bytes a Conn writes for msgs, sending the payload
// string after any message with a positive Size.
func capture(t *testing.T, msgs []*protocol.Message, payload string) []byte {
	t.Helper()
	a, b := net.Pipe()
	conn := protocol.NewConn(a)
	go func() {
		for _, m := range msgs {
			var err error
			if m.Size > 0 {
				err = conn.SendPayload(m, strings.NewReader(payload))
			} else {
				err = conn.Send(m)
			}
			if err != nil {
				t.Error(err)
			}
		}
		conn.Close()
	}()
	out, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecodeRoundTrip(t *testing.T) {
	sent := []*protocol.Message{
		{Type: protocol.TypeRegister, WorkerID: "w1", TransferAddr: "127.0.0.1:9000"},
		{Type: protocol.TypeData, CacheName: "file-abc", Size: 5, Checksum: "c0ffee"},
		{Type: protocol.TypeCacheUpdate, WorkerID: "w1", CacheName: "file-abc", Status: protocol.StatusOK},
	}
	stream := capture(t, sent, "hello")
	var out bytes.Buffer
	if err := decode(bytes.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	var got []*protocol.Message
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		m := new(protocol.Message)
		if err := json.Unmarshal(sc.Bytes(), m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, m)
	}
	sent[1].Payload = true // the receiver marks a frame that carried a payload
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("decoded %+v, want %+v", got, sent)
	}
}

func TestDecodeRejectsBrokenStreams(t *testing.T) {
	beat := capture(t, []*protocol.Message{{Type: protocol.TypeHeartbeat}}, "")
	put := capture(t, []*protocol.Message{{Type: protocol.TypePut, Size: 4}}, "data")
	for name, in := range map[string][]byte{
		"json line":   []byte(`{"type":"heartbeat"}` + "\n"),
		"cut header":  beat[:len(beat)-1],
		"cut payload": put[:len(put)-1],
	} {
		if err := decode(bytes.NewReader(in), io.Discard); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
