// Package collector implements the city-side backend: a TCP server
// ingesting reader reports over the telemetry protocol, an in-memory
// store (one delivery ledger per reader id, see store.go), and the
// smart-city services the paper motivates — traffic counting per
// intersection, parking occupancy, find-my-car, and speed checks across
// reader pairs (§1, §4).
package collector

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"caraoke/internal/telemetry"
)

// DefaultIdleTimeout is the read-side idle deadline NewServer arms on
// each connection: a reader that has not delivered a frame for this
// long is presumed gone and its connection is reaped. Generous next to
// any sane uplink cadence, but finite — a half-open connection (reader
// killed without a FIN ever reaching us) would otherwise pin its serve
// goroutine and socket forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server is the TCP ingest front end.
type Server struct {
	Store *Store
	// Logf, if set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
	// IdleTimeout bounds the wait for the next frame on a connection;
	// an idle connection is closed. The deadline is armed by the first
	// read of a frame that has to wait on the socket and covers the rest
	// of that frame, not each read: a peer that trickles a frame slower
	// than this is closed too. Frames already in the connection's buffer
	// arm nothing and are ingested even once the socket has closed.
	// NewServer sets DefaultIdleTimeout; ≤ 0 disables the deadline (a
	// half-open peer then pins its goroutine until Stop).
	IdleTimeout time.Duration

	ln     net.Listener
	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// NewServer creates a server around a store.
func NewServer(store *Store) *Server {
	return &Server{Store: store, IdleTimeout: DefaultIdleTimeout}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Stop.
// It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	s.ServeListener(ln)
	return ln.Addr(), nil
}

// ServeListener serves connections from an already-bound listener until
// Stop. It is the injection point for tests that wrap a listener to
// exercise accept-error handling; production callers use Start.
func (s *Server) ServeListener(ln net.Listener) {
	ctx, cancel := context.WithCancel(context.Background())
	s.ln = ln
	s.cancel = cancel
	s.wg.Add(1)
	go s.acceptLoop(ctx)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Accept backoff bounds: transient accept failures (EMFILE, ECONNABORTED
// under a SYN flood, …) retry with exponential backoff instead of
// killing the ingest path for every reader in the city.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-ctx.Done():
				return
			default:
			}
			// net.Error.Temporary is deprecated for general use, but it
			// remains the only signal listeners give for retryable accept
			// failures; net/http's Server uses the same test.
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				if backoff == 0 {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				s.logf("collector: accept: %v; retrying in %v", err, backoff)
				select {
				case <-ctx.Done():
					return
				case <-time.After(backoff):
				}
				continue
			}
			s.logf("collector: accept: %v", err)
			return
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
}

// connBufferSize is the read buffer of one collector connection: a
// burst of small frames arrives in one read, and each is parsed where
// it lies.
const connBufferSize = 64 << 10

// serveConn ingests frames from one reader connection through one
// buffered reader, so a burst of frames costs one read syscall rather
// than two per frame (header, then body). A corrupt frame aborts the
// connection (the framing cannot be resynchronized safely); the
// reader's client reconnects and retries.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	// Unblock reads on shutdown; released when the connection ends, so a
	// long-lived server does not accumulate one watcher per past reader.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	src := &idleReader{conn: conn, timeout: s.IdleTimeout}
	br := bufio.NewReaderSize(src, connBufferSize)
	for {
		src.armed = false
		rs, err := telemetry.ReadBatch(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && ctx.Err() == nil {
				if os.IsTimeout(err) {
					s.logf("collector: %v: closing idle connection (%v without a frame)", conn.RemoteAddr(), s.IdleTimeout)
				} else {
					s.logf("collector: %v: %v", conn.RemoteAddr(), err)
				}
			}
			return
		}
		s.Store.AddBatch(rs)
	}
}

// idleReader is a connection's read side under the idle deadline: the
// first read of a frame that reaches the socket arms it, and it then
// covers the rest of that frame. A frame the buffer already holds never
// gets here, so it pays no timer update, and it is not lost to a
// deadline that can no longer be set on a closed connection.
type idleReader struct {
	conn    net.Conn
	timeout time.Duration
	armed   bool // for the frame being read; serveConn clears it per frame
}

func (r *idleReader) Read(p []byte) (int, error) {
	if !r.armed && r.timeout > 0 {
		if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return 0, err
		}
		r.armed = true
	}
	return r.conn.Read(p)
}

// Stop shuts the server down and waits for connections to drain.
func (s *Server) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// DefaultWriteTimeout bounds a client frame write when the caller does
// not override WriteTimeout: a stalled collector (full TCP window,
// wedged peer) fails the reader's uplink instead of hanging its epoch
// forever.
const DefaultWriteTimeout = 10 * time.Second

// Reconnect defaults: a send that fails gets this many redial-and-
// rewrite attempts, spaced by jittered exponential backoff, before the
// client degrades and starts dropping.
const (
	DefaultRetryAttempts = 6
	DefaultBackoffMin    = 10 * time.Millisecond
	DefaultBackoffMax    = time.Second
)

// ErrUplinkDegraded marks a client past its retry budget: the failed
// reports were counted as dropped (Stats().Dropped) and every further
// send is dropped immediately. Callers that want to survive a dead
// collector treat it as telemetry loss, not a fatal error.
var ErrUplinkDegraded = errors.New("collector: uplink degraded past retry budget")

// RetryPolicy shapes a client's reconnect behavior after a failed
// frame write. Zero fields take the Default* constants.
type RetryPolicy struct {
	// Attempts is the redial budget per failed send.
	Attempts int
	// BackoffMin is the first retry delay; each further attempt
	// doubles it up to BackoffMax, and every delay is jittered to
	// ±50% so a city of readers losing one collector does not redial
	// in lockstep.
	BackoffMin, BackoffMax time.Duration
}

// ClientStats counts a client's delivery outcomes in reports (not
// frames). Read it after the sending goroutine is done; like the send
// methods themselves, it is not synchronized.
type ClientStats struct {
	// Delivered counts reports in frames whose write succeeded. (A
	// fault-injected silent drop still counts — a fire-and-forget
	// uplink cannot tell; the store's delivery barrier is what
	// accounts true loss.)
	Delivered int
	// Redelivered counts reports rewritten after a send error — the
	// at-least-once duplicates the store dedupes when the first copy
	// made it out before the error.
	Redelivered int
	// Reconnects counts successful redials.
	Reconnects int
	// Dropped counts reports abandoned: sends past the retry budget,
	// and reports still queued at Close.
	Dropped int
}

// Client is a reader-side uplink connection. It can send reports one
// frame each (Send, a batch of one) or coalesce several into one frame
// (Queue + Flush) — the batching path a duty-cycled reader uses to pay
// one frame per uplink burst instead of one per report.
//
// A client is an at-least-once sender: a failed frame write reconnects
// with jittered exponential backoff and rewrites the frame, so a
// report is only lost if the retry budget runs out (counted in
// Stats().Dropped) — or if the network swallowed a frame whose write
// "succeeded", which no ack-free protocol can see; the store's
// (ReaderID, Seq) dedupe makes the redelivery side of this idempotent.
// A client belongs to one goroutine; nothing here is synchronized.
type Client struct {
	conn net.Conn
	// WriteTimeout bounds each frame write; a deadline exceeded error
	// fails the send. ≤ 0 disables the deadline. The constructors set
	// DefaultWriteTimeout.
	WriteTimeout time.Duration
	// Retry shapes the reconnect loop; zero fields take defaults.
	Retry RetryPolicy
	// redial reopens the uplink after a failed write: the dialer the
	// client was built with.
	redial func() (net.Conn, error)

	pending []*telemetry.Report
	// one is Send's batch of one and frame the encoded frame in flight,
	// both kept so that a send allocates nothing.
	one      [1]*telemetry.Report
	frame    []byte
	stats    ClientStats
	degraded bool
}

// Dial connects to a collector over TCP; each connection attempt,
// the first and every redial, is bounded by timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialFunc(func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) })
}

// DialFunc connects through the given dialer and keeps it to reopen
// the uplink after a failed write. The fault-injection harness passes a
// fault-wrapping dialer here.
func DialFunc(dial func() (net.Conn, error)) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("collector: dial: %w", err)
	}
	return &Client{conn: conn, WriteTimeout: DefaultWriteTimeout, redial: dial}, nil
}

// Stats returns a snapshot of the client's delivery counters.
func (c *Client) Stats() ClientStats { return c.stats }

// armDeadline applies the write deadline for one frame write.
func (c *Client) armDeadline() error {
	if c.WriteTimeout <= 0 {
		return c.conn.SetWriteDeadline(time.Time{})
	}
	return c.conn.SetWriteDeadline(time.Now().Add(c.WriteTimeout))
}

// Send uploads one report as a frame of its own.
func (c *Client) Send(r *telemetry.Report) error {
	c.one[0] = r
	err := c.deliver(c.one[:])
	c.one[0] = nil // the client does not pin a sent report
	return err
}

// deliver encodes one frame carrying rs into the client's frame buffer
// and writes it, redialing and rewriting per the retry policy. A batch
// that does not encode is dropped and its error returned, the uplink
// untouched; otherwise the only error is ErrUplinkDegraded.
func (c *Client) deliver(rs []*telemetry.Report) error {
	if c.degraded {
		c.stats.Dropped += len(rs)
		return ErrUplinkDegraded
	}
	frame, err := telemetry.AppendBatch(c.frame[:0], rs)
	if err != nil {
		c.stats.Dropped += len(rs)
		return fmt.Errorf("collector: send: %w", err)
	}
	c.frame = frame
	write := func() error {
		if err := c.armDeadline(); err != nil {
			return fmt.Errorf("collector: send: %w", err)
		}
		_, err := c.conn.Write(frame)
		return err
	}
	if err = write(); err == nil {
		c.stats.Delivered += len(rs)
		return nil
	}
	attempts := c.Retry.Attempts
	if attempts <= 0 {
		attempts = DefaultRetryAttempts
	}
	backoff := c.Retry.BackoffMin
	if backoff <= 0 {
		backoff = DefaultBackoffMin
	}
	maxBackoff := c.Retry.BackoffMax
	if maxBackoff <= 0 {
		maxBackoff = DefaultBackoffMax
	}
	for attempt := 0; attempt < attempts; attempt++ {
		time.Sleep(jittered(backoff))
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		conn, derr := c.redial()
		if derr != nil {
			continue
		}
		// Release the failed conn. (A fault-injected kill leaves the
		// far side half-open regardless — that is the injector's job —
		// but real dead conns must not leak.)
		c.conn.Close()
		c.conn = conn
		c.stats.Reconnects++
		if err = write(); err == nil {
			c.stats.Delivered += len(rs)
			c.stats.Redelivered += len(rs)
			return nil
		}
	}
	c.degraded = true
	c.stats.Dropped += len(rs)
	return fmt.Errorf("%w (after %d reconnect attempts, last error: %v)", ErrUplinkDegraded, attempts, err)
}

// jittered spreads a backoff delay uniformly over [d/2, 3d/2).
func jittered(d time.Duration) time.Duration {
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(2*half))
}

// Queue buffers a report for the next Flush. Queue and Flush are not
// concurrency-safe; a client belongs to one reader goroutine.
func (c *Client) Queue(r *telemetry.Report) {
	c.pending = append(c.pending, r)
}

// Pending returns the number of queued reports.
func (c *Client) Pending() int { return len(c.pending) }

// Flush sends every queued report in one frame and empties the
// queue. The client reconnects and redelivers internally; if it
// degrades instead, the queue is counted as dropped and cleared, and
// ErrUplinkDegraded comes back.
func (c *Client) Flush() error {
	if len(c.pending) == 0 {
		return nil
	}
	err := c.deliver(c.pending)
	// A bare re-slice would keep every flushed *Report pinned in the
	// backing array until a later Queue overwrites its slot — the same
	// leak class readerLog.insert trims with clear(). At city scale a
	// long-lived uplink would otherwise hold its largest-ever batch of
	// dead reports (spikes, channel estimates and all) forever.
	clear(c.pending)
	c.pending = c.pending[:0]
	return err
}

// Close closes the uplink. Contract: Close never blocks on the
// network, so reports still queued (Queue without a Flush) are NOT
// sent — they are dropped, and the drop is recorded in
// Stats().Dropped. Callers that need the queue delivered must Flush
// first and check its error.
func (c *Client) Close() error {
	if n := len(c.pending); n > 0 {
		c.stats.Dropped += n
		clear(c.pending)
		c.pending = c.pending[:0]
	}
	return c.conn.Close()
}
