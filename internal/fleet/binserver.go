package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn/internal/serve"
)

// BinaryServer serves the binary batch transport over a TCP listener,
// answering frameBatch requests with the same serve.Service.Batch the
// HTTP surface uses — one routing engine, two wire formats. Connections
// are persistent: a client keeps one conn and pushes batches down it
// back to back, which is the whole point (no per-request connection,
// header, or JSON costs). A connection that starts no frame, or does not
// finish one, within two minutes is closed.
type BinaryServer struct {
	svc  *serve.Service
	ln   net.Listener
	idle time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Transport counters, exposed for cmd-layer metric registration.
	connsTotal   atomic.Uint64
	batchesTotal atomic.Uint64
	routesTotal  atomic.Uint64
}

// idleTimeout bounds the wait for one frame, from the end of the
// previous answer to the frame's last byte: a silent connection, or one
// stalled mid-frame, is closed after it. It equals wasnd's HTTP idle
// timeout, so both transports drop an idle client alike.
const idleTimeout = 2 * time.Minute

// NewBinaryServer wraps an existing listener (so callers can bind ":0"
// and learn the port first) and starts the accept loop.
func NewBinaryServer(svc *serve.Service, ln net.Listener) *BinaryServer {
	return newBinaryServer(svc, ln, idleTimeout)
}

// newBinaryServer is NewBinaryServer with the per-frame read deadline
// idle.
func newBinaryServer(svc *serve.Service, ln net.Listener, idle time.Duration) *BinaryServer {
	b := &BinaryServer{svc: svc, ln: ln, idle: idle, conns: make(map[net.Conn]struct{})}
	b.wg.Add(1)
	go b.acceptLoop()
	return b
}

// Addr returns the listener address ("host:port").
func (b *BinaryServer) Addr() string { return b.ln.Addr().String() }

// Stats reports transport totals: connections accepted, batches served,
// routes answered.
func (b *BinaryServer) Stats() (conns, batches, routes uint64) {
	return b.connsTotal.Load(), b.batchesTotal.Load(), b.routesTotal.Load()
}

// Close stops accepting, closes every live connection, and waits for
// the handler goroutines to drain.
func (b *BinaryServer) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	for c := range b.conns {
		c.Close()
	}
	b.mu.Unlock()
	err := b.ln.Close()
	b.wg.Wait()
	return err
}

func (b *BinaryServer) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[conn] = struct{}{}
		b.wg.Add(1)
		b.mu.Unlock()
		b.connsTotal.Add(1)
		go b.serveConn(conn)
	}
}

func (b *BinaryServer) serveConn(conn net.Conn) {
	defer b.wg.Done()
	defer func() {
		conn.Close()
		b.mu.Lock()
		delete(b.conns, conn)
		b.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		if conn.SetReadDeadline(time.Now().Add(b.idle)) != nil {
			return
		}
		typ, payload, err := readFrame(r)
		if err != nil {
			return // EOF, reset, timeout, or garbage framing: drop the conn
		}
		switch typ {
		case framePing:
			if writeFrame(w, framePong, payload) != nil || w.Flush() != nil {
				return
			}
		case frameBatch:
			id, reqs, err := decodeBatchRequest(payload)
			if err != nil {
				// Malformed batch: report and drop the conn — after a
				// framing-level decode failure the stream position is
				// untrustworthy.
				_ = writeFrame(w, frameError, encodeError(id, err.Error()))
				_ = w.Flush()
				return
			}
			if !b.streamBatch(w, id, reqs) {
				return
			}
		default:
			_ = writeFrame(w, frameError, encodeError(0, fmt.Sprintf("unknown frame type %d", typ)))
			_ = w.Flush()
			return
		}
	}
}

// streamBatch answers one batch: compute, then stream results in
// bounded chunks followed by the terminator. Reports whether the
// connection is still usable.
func (b *BinaryServer) streamBatch(w *bufio.Writer, id uint32, reqs []serve.RouteRequest) bool {
	b.batchesTotal.Add(1)
	b.routesTotal.Add(uint64(len(reqs)))
	results := b.svc.Batch(reqs)
	for start := 0; start < len(results); start += batchChunkSize {
		end := start + batchChunkSize
		if end > len(results) {
			end = len(results)
		}
		if writeFrame(w, frameBatchChunk, encodeBatchChunk(id, start, results[start:end])) != nil {
			return false
		}
	}
	if writeFrame(w, frameBatchEnd, encodeBatchEnd(id, len(results))) != nil {
		return false
	}
	return w.Flush() == nil
}

// errConnBroken marks a client whose stream desynced; the owner must
// reconnect.
var errConnBroken = errors.New("fleet: binary connection broken")
