// Package protocol implements the TaskVine wire protocol spoken between the
// manager and its workers, and between peer workers during supervised
// worker-to-worker transfers (§2.2, §3.3).
//
// Every message on every connection is one binary frame (see binary.go): a
// fixed prologue, a compact tag/value header carrying the Message fields,
// and, when the header says so, exactly Size raw bytes of file data. There
// is no other framing and nothing to negotiate: a connection speaks frames
// from its first byte, and Recv rejects input that does not start with the
// frame magic. The manager directs all policy; workers respond
// asynchronously with cache-update and completion messages, so the
// connection is fully bidirectional and unsynchronized. cmd/vine-frames
// decodes a captured byte stream for debugging.
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// Message type tags. Direction is noted for documentation; the codec is
// symmetric.
const (
	// TypeRegister (worker→manager) announces a new worker, its transfer
	// address, and its resource capacity.
	TypeRegister = "register"
	// TypeTask (manager→worker) dispatches a task specification.
	TypeTask = "task"
	// TypePut (manager→worker) carries a file payload to store in cache.
	TypePut = "put"
	// TypeGet (either direction) requests a cached object; answered with
	// TypeData or TypeError.
	TypeGet = "get"
	// TypeData answers TypeGet with the object payload.
	TypeData = "data"
	// TypeFetchURL (manager→worker) instructs an asynchronous download
	// from a remote URL into cache.
	TypeFetchURL = "fetch-url"
	// TypeFetchPeer (manager→worker) instructs an asynchronous transfer
	// from another worker's cache into this worker's cache.
	TypeFetchPeer = "fetch-peer"
	// TypeMini (manager→worker) instructs on-demand materialization of a
	// file by executing a MiniTask specification.
	TypeMini = "mini"
	// TypeCacheUpdate (worker→manager) reports that an object has become
	// present (or failed to become present) in the worker's cache.
	TypeCacheUpdate = "cache-update"
	// TypeCacheInvalid (worker→manager) reports that a cached object was
	// lost or evicted.
	TypeCacheInvalid = "cache-invalid"
	// TypeComplete (worker→manager) reports task completion.
	TypeComplete = "complete"
	// TypeUnlink (manager→worker) deletes an object from the cache.
	TypeUnlink = "unlink"
	// TypeKill (manager→worker) aborts a running task.
	TypeKill = "kill"
	// TypeInvoke (manager→worker) routes a FunctionCall to a deployed
	// library instance.
	TypeInvoke = "invoke"
	// TypeHeartbeat keeps the connection alive and reports load.
	TypeHeartbeat = "heartbeat"
	// TypeRelease (manager→worker) asks the worker to shut down cleanly.
	TypeRelease = "release"
	// TypeRedirect (manager→worker) leases the worker to another manager
	// shard: the worker drops its current link and re-registers with the
	// manager listening at URL, keeping its cache contents.
	TypeRedirect = "redirect"
	// TypeEndWorkflow (manager→worker) marks the conclusion of a workflow:
	// the worker discards all task- and workflow-lifetime objects.
	TypeEndWorkflow = "end-workflow"
	// TypeError reports a request-level failure.
	TypeError = "error"
)

// Status values for TypeCacheUpdate.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// OutputInfo describes one output object a completed task deposited into
// the worker cache.
type OutputInfo struct {
	CacheName string `json:"cache_name"`
	Size      int64  `json:"size"`
}

// Message is the single wire message shape. Fields are a union across all
// message types; unused fields are omitted from the encoding. A flat union
// keeps the codec trivial. The json tags name the fields in cmd/vine-frames
// output; they play no part on the wire.
type Message struct {
	Type string `json:"type"`

	// Worker identity and capacity (register, heartbeat).
	WorkerID     string       `json:"worker_id,omitempty"`
	TransferAddr string       `json:"transfer_addr,omitempty"`
	Capacity     *resources.R `json:"capacity,omitempty"`

	// Task dispatch and completion.
	TaskID   int            `json:"task_id,omitempty"`
	Spec     *taskspec.Spec `json:"spec,omitempty"`
	ExitCode int            `json:"exit_code,omitempty"`
	Result   []byte         `json:"result,omitempty"`
	Outputs  []OutputInfo   `json:"outputs,omitempty"`
	// TimeStagedMS and TimeRunMS split the worker-side latency into data
	// staging and execution, the raw material of Figure 9.
	TimeStagedMS int64 `json:"time_staged_ms,omitempty"`
	TimeRunMS    int64 `json:"time_run_ms,omitempty"`
	// MeasuredDisk and MeasuredMemory report observed task consumption in
	// bytes (sandbox residue; peak RSS when memory monitoring ran), the
	// raw material for category-based allocation sizing.
	MeasuredDisk   int64 `json:"measured_disk,omitempty"`
	MeasuredMemory int64 `json:"measured_memory,omitempty"`

	// File movement.
	CacheName string `json:"cache_name,omitempty"`
	Size      int64  `json:"size,omitempty"`
	// Payload is set by Recv when the frame carried Size payload bytes.
	// Senders need not set it: SendPayload marks the frame.
	Payload bool `json:"payload,omitempty"`
	// Dir marks a directory-valued object whose payload is a tar stream
	// rather than raw file bytes.
	Dir      bool `json:"dir,omitempty"`
	Lifetime int  `json:"lifetime,omitempty"`
	// Tier reports which storage tier holds the object named by a
	// cache-update (0 disk, 1 memory), so the manager can distinguish
	// RAM-resident handle results from disk-materialized objects.
	Tier       int    `json:"tier,omitempty"`
	URL        string `json:"url,omitempty"`
	PeerAddr   string `json:"peer_addr,omitempty"`
	TransferID string `json:"transfer_id,omitempty"`
	// Checksum is the hex MD5 digest of the payload accompanying a data
	// message; receivers that find it non-empty verify the payload against
	// it and treat a mismatch as a transfer failure.
	Checksum string `json:"checksum,omitempty"`
	// Offset and Total support ranged object reads for chunk-parallel peer
	// fetches: a TypeGet with Total > 0 requests Size bytes starting at
	// Offset of an object whose full length is Total, and the TypeData
	// reply's Checksum covers just that range.
	Offset int64 `json:"offset,omitempty"`
	Total  int64 `json:"total,omitempty"`
	// PeerAddrs lists additional replica holders of the object named by a
	// fetch instruction, enabling the receiving worker to fetch disjoint
	// chunks of a large object from several sources in parallel.
	PeerAddrs []string `json:"peer_addrs,omitempty"`

	// Status reporting.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Conn wraps a network connection with the message codec. Reads must be
// performed by a single goroutine.
//
// Writes go through one bounded outbound FIFO drained by a writer
// goroutine, the only code that writes to the socket. Send encodes its
// frame into the queue and returns without I/O; SendPayload queues its
// header and payload stream as one item and waits for it to be written.
// The writer takes everything queued at once, so a burst of frames leaves
// in one socket write. Nothing overtakes a frame queued before it.
//
// Failure is sticky: a write error, or more than maxQueuedBytes waiting,
// closes the connection, and every later send returns that error.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader
	// pending is the unread remainder of the previous message's payload;
	// it must be drained before the next frame can be decoded.
	pending int64

	// mu is a leaf lock: frames are encoded under it, nothing blocks.
	mu sync.Mutex
	// wake signals the writer: frames queued, closing, or failed.
	wake *sync.Cond
	// out holds the encoded frames the writer has not taken. guarded by mu
	out []byte
	// streams lists the payloads queued in out, in order. guarded by mu
	streams []stream
	// closing refuses new frames while the writer drains. guarded by mu
	closing bool
	// err is the sticky failure later sends return. guarded by mu
	err error
	// writerDone is closed when the writer goroutine exits.
	writerDone chan struct{}

	// writes and frames count socket writes and frames sent; writeStart
	// is when the socket write in progress began (unix ns, 0 when idle).
	writes, frames, writeStart atomic.Int64
}

// stream is a payload queued behind its header, which ends out[:off].
type stream struct {
	off  int
	r    io.Reader
	size int64
	name string
	done chan error
}

const (
	// maxQueuedBytes bounds the frames waiting for the writer, leaving
	// room for several of the largest headers a receiver accepts.
	maxQueuedBytes = 4 * maxHeaderBytes
	// maxRetainedQueue is the largest drained queue buffer kept for reuse.
	maxRetainedQueue = 1 << 20
	// closeDrainTimeout bounds how long Close writes out queued frames to
	// a peer that may have stopped reading.
	closeDrainTimeout = time.Second
)

var errClosed = errors.New("protocol: connection closed")

// NewConn wraps an established network connection and starts its writer,
// which runs until Close.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{raw: c, r: bufio.NewReaderSize(c, 1<<16), writerDone: make(chan struct{})}
	conn.wake = sync.NewCond(&conn.mu)
	go conn.writeLoop()
	return conn
}

// Close writes out the frames queued before it, giving a peer that is not
// reading at most closeDrainTimeout, then closes the connection. Later
// sends fail. Close is idempotent and safe to call concurrently.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closing = true
	c.wake.Broadcast()
	c.mu.Unlock()
	// An error means the socket is already closed, which is the goal.
	_ = c.raw.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
	<-c.writerDone
	return c.raw.Close()
}

// RemoteAddr returns the peer address of the underlying connection.
func (c *Conn) RemoteAddr() string { return c.raw.RemoteAddr().String() }

// SetDeadline sets the read/write deadline on the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline bounds future reads, so a wedged sender fails the
// transfer instead of hanging a goroutine forever. Refresh it before each
// read to express an idle timeout rather than a whole-transfer bound.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// WriteStats returns the socket writes made and the frames sent.
func (c *Conn) WriteStats() (writes, frames int64) { return c.writes.Load(), c.frames.Load() }

// WriteStalled reports how long the writer has been blocked in its current
// socket write, as when the peer stops reading; zero when not writing.
func (c *Conn) WriteStalled() time.Duration {
	if start := c.writeStart.Load(); start != 0 {
		return time.Since(time.Unix(0, start))
	}
	return 0
}

// Send queues a control message with no payload. The frame is encoded
// before Send returns, so the caller may reuse the message at once.
func (c *Conn) Send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enqueueLocked(m, false)
}

// SendPayload queues a control message followed by exactly m.Size bytes
// read from payload, and waits until both are written. A payload that
// fails or runs short fails the connection: the peer was promised m.Size
// bytes. The caller's message is only read, so one Message may be
// broadcast to many connections concurrently.
func (c *Conn) SendPayload(m *Message, payload io.Reader) error {
	if payload == nil {
		return c.Send(m)
	}
	done := make(chan error, 1)
	c.mu.Lock()
	err := c.enqueueLocked(m, true)
	if err == nil {
		c.streams = append(c.streams, stream{off: len(c.out), r: payload, size: m.Size, name: m.CacheName, done: done})
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return <-done
}

// enqueueLocked encodes one frame onto the queue. Caller holds mu.
func (c *Conn) enqueueLocked(m *Message, hasPayload bool) error {
	if c.err != nil {
		return c.err
	}
	if c.closing {
		return errClosed
	}
	c.out = appendFrame(c.out, m, hasPayload)
	if len(c.out) > maxQueuedBytes {
		c.failLocked(fmt.Errorf("protocol: outbound queue exceeds %d bytes; the peer is not reading", maxQueuedBytes))
		return c.err
	}
	c.frames.Add(1)
	c.wake.Signal()
	return nil
}

// failLocked records the first failure, fails the queued payloads, and
// closes the socket so the reader fails too. Caller holds mu.
func (c *Conn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	for _, s := range c.streams {
		s.done <- c.err
	}
	c.streams, c.out = nil, nil
	c.wake.Broadcast()
	_ = c.raw.Close() // already failed; the close error adds nothing
}

// appendFrame appends a binary frame header (prologue and message) to b.
func appendFrame(b []byte, m *Message, hasPayload bool) []byte {
	start := len(b)
	b = encodeMessage(append(b, make([]byte, framePrologueLen)...), m)
	prologue := b[start : start+framePrologueLen]
	prologue[0] = frameMagic
	prologue[1] = frameVersion
	binary.BigEndian.PutUint32(prologue[3:7], uint32(len(b)-start-framePrologueLen))
	if hasPayload {
		prologue[2] = frameFlagPayload
		binary.BigEndian.PutUint64(prologue[7:15], uint64(m.Size))
	}
	return b
}

// writeLoop takes the whole queue, writes it, and repeats until the
// connection closes or fails.
func (c *Conn) writeLoop() {
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(sockWriter{c}, 1<<16)
	var out []byte
	var streams []stream
	for {
		c.mu.Lock()
		for len(c.out) == 0 && !c.closing && c.err == nil {
			c.wake.Wait()
		}
		if c.err != nil || len(c.out) == 0 {
			if c.err == nil {
				c.err = errClosed
			}
			c.mu.Unlock()
			return
		}
		out, c.out = c.out, out[:0]
		streams, c.streams = c.streams, streams[:0]
		c.mu.Unlock()
		if err := drain(bw, out, streams); err != nil {
			c.mu.Lock()
			c.failLocked(fmt.Errorf("protocol: writing: %w", err))
			c.mu.Unlock()
			return
		}
		if cap(out) > maxRetainedQueue {
			out = nil
		}
		clear(streams) // drop the payload readers
	}
}

// drain writes one batch, streaming each payload after its header, and
// answers every payload's sender once its bytes are flushed.
func drain(bw *bufio.Writer, out []byte, streams []stream) error {
	off := 0
	for i, s := range streams {
		_, err := bw.Write(out[off:s.off])
		off = s.off
		if err == nil {
			var n int64
			n, err = bw.ReadFrom(io.LimitReader(s.r, s.size))
			if err != nil {
				err = fmt.Errorf("protocol: sending payload of %s: %w", s.name, err)
			} else if n != s.size {
				err = fmt.Errorf("protocol: short payload for %s: sent %d of %d bytes", s.name, n, s.size)
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		s.done <- err
		if err != nil {
			for _, rest := range streams[i+1:] {
				rest.done <- err
			}
			return err
		}
	}
	if _, err := bw.Write(out[off:]); err != nil {
		return err
	}
	return bw.Flush()
}

// sockWriter is the writer's view of the socket: it counts writes and
// marks the one in progress for WriteStalled.
type sockWriter struct{ c *Conn }

func (w sockWriter) Write(p []byte) (int, error) {
	w.c.writeStart.Store(time.Now().UnixNano())
	n, err := w.c.raw.Write(p)
	w.c.writeStart.Store(0)
	w.c.writes.Add(1)
	return n, err
}

// Recv reads the next frame. If it carries a payload, the returned reader
// yields exactly Size bytes and MUST be fully consumed (or the connection
// abandoned) before the next call to Recv; Recv drains any unconsumed
// remainder itself as a safety net. When the stream ends between frames,
// Recv returns io.EOF itself; an end inside a frame is a wrapped error.
func (c *Conn) Recv() (*Message, io.Reader, error) {
	if c.pending > 0 {
		if _, err := io.CopyN(io.Discard, c.r, c.pending); err != nil {
			return nil, nil, fmt.Errorf("protocol: draining abandoned payload: %w", err)
		}
		c.pending = 0
	}
	var prologue [framePrologueLen]byte
	if _, err := io.ReadFull(c.r, prologue[:1]); err != nil {
		return nil, nil, err
	}
	if prologue[0] != frameMagic {
		return nil, nil, fmt.Errorf("protocol: first byte %#02x (%q) is not the frame magic %#02x", prologue[0], prologue[0], frameMagic)
	}
	if _, err := io.ReadFull(c.r, prologue[1:]); err != nil {
		return nil, nil, fmt.Errorf("protocol: reading frame prologue: %w", err)
	}
	if prologue[1] != frameVersion {
		return nil, nil, fmt.Errorf("protocol: unsupported frame version %d", prologue[1])
	}
	hlen := binary.BigEndian.Uint32(prologue[3:7])
	if hlen > maxHeaderBytes {
		return nil, nil, fmt.Errorf("protocol: frame header of %d bytes exceeds limit %d", hlen, maxHeaderBytes)
	}
	hb := getEncBuf()
	defer putEncBuf(hb)
	h := *hb
	if cap(h) < int(hlen) {
		h = make([]byte, hlen)
	} else {
		h = h[:hlen]
	}
	*hb = h
	if _, err := io.ReadFull(c.r, h); err != nil {
		return nil, nil, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	m, err := decodeMessage(h)
	if err != nil {
		return nil, nil, err
	}
	if prologue[2]&frameFlagPayload == 0 {
		return m, nil, nil
	}
	plen := binary.BigEndian.Uint64(prologue[7:15])
	if plen > 1<<62 {
		return nil, nil, fmt.Errorf("protocol: %s frame with absurd payload size %d", m.Type, plen)
	}
	m.Payload = true
	m.Size = int64(plen)
	c.pending = m.Size
	pr := &payloadReader{c: c, r: io.LimitReader(c.r, m.Size)}
	return m, pr, nil
}

// payloadReader tracks consumption so Recv can drain leftovers.
type payloadReader struct {
	c *Conn
	r io.Reader
}

func (p *payloadReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.c.pending -= int64(n)
	return n, err
}

// Dial connects to a TaskVine endpoint.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dialing %s: %w", addr, err)
	}
	return NewConn(nc), nil
}
