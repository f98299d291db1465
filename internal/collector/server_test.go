package collector

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

// tempAcceptErr is a retryable accept failure (what EMFILE or an
// aborted handshake surfaces as).
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: transient failure" }
func (tempAcceptErr) Temporary() bool { return true }
func (tempAcceptErr) Timeout() bool   { return false }

// flakyListener injects n temporary accept errors between successful
// accepts from the wrapped listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTemporaryErrors: a transient accept failure
// must not kill the ingest path — the loop backs off, retries, and
// later connections still land their reports (regression for the
// accept loop returning on the first error of any kind).
func TestAcceptLoopSurvivesTemporaryErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner}
	ln.failures.Store(3)

	store := NewStore(100)
	srv := NewServer(store)
	srv.Logf = t.Logf
	srv.ServeListener(ln)
	defer srv.Stop()

	c, err := Dial(inner.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&telemetry.Report{ReaderID: 3, Seq: 1, Timestamp: at(0)}); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{3: 1}, 5*time.Second); err != nil {
		t.Fatalf("report never ingested after temporary accept errors: %v", err)
	}
	if got := store.Latest(3); got == nil || got.Seq != 1 {
		t.Fatalf("latest = %+v", got)
	}
	if ln.failures.Load() >= 0 {
		t.Fatal("listener never surfaced its temporary errors — test proved nothing")
	}
}

// TestServerIngestsBatchFrames: one connection carrying a mix of
// one-report (Send) and multi-report (Queue + Flush) frames must land
// every report.
func TestServerIngestsBatchFrames(t *testing.T) {
	store := NewStore(100)
	srv := NewServer(store)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0)}); err != nil {
		t.Fatal(err)
	}
	for seq := 2; seq <= 5; seq++ {
		c.Queue(&telemetry.Report{ReaderID: 1, Seq: uint32(seq), Timestamp: at(seq)})
	}
	if c.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", c.Pending())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending after flush = %d", c.Pending())
	}
	if err := c.Send(&telemetry.Report{ReaderID: 2, Seq: 9, Timestamp: at(9)}); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{1: 5, 2: 9}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := store.Latest(1); got == nil || got.Seq != 5 {
		t.Fatalf("reader 1 latest = %+v", got)
	}
	if got := store.Latest(2); got == nil || got.Seq != 9 {
		t.Fatalf("reader 2 latest = %+v", got)
	}
}

// TestServeConnReleasesWatcher: a connection that ends must take its
// shutdown watcher with it while the server keeps running — a
// long-lived collector with reconnecting readers would otherwise park
// one goroutine per connection ever accepted until Stop.
func TestServeConnReleasesWatcher(t *testing.T) {
	store := NewStore(8)
	srv := NewServer(store)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	const cycles = 50
	base := runtime.NumGoroutine()
	for seq := uint32(1); seq <= cycles; seq++ {
		c, err := Dial(addr.String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(&telemetry.Report{ReaderID: 1, Seq: seq, Timestamp: at(0)}); err != nil {
			t.Fatal(err)
		}
		if err := store.WaitHighWater(map[uint32]uint32{1: seq}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// The serve goroutines see EOF asynchronously; give them a moment.
	const slack = 3
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+slack {
		t.Errorf("%d goroutines after %d connect/close cycles, %d before — closed connections left watchers behind", got, cycles, base)
	}
}

// stormReport is a reader's report as the ingest storm sends it: eight
// spikes of three channels, one per antenna of the triangle array.
func stormReport(seq uint32) *telemetry.Report {
	r := &telemetry.Report{ReaderID: 1, Seq: seq, Timestamp: at(int(seq) % 60), Count: 8}
	for i := 0; i < 8; i++ {
		r.Spikes = append(r.Spikes, telemetry.SpikeRecord{
			FreqHz:   float64(50_000 * (i + 1)),
			Channels: []complex128{complex(float64(i), 1), 2 - 1i, complex(0.5, float64(-i))},
		})
	}
	return r
}

// discardConn is an uplink that takes every write and keeps nothing.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)        { return len(b), nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }
func (discardConn) Close() error                       { return nil }

// TestClientSendAllocs: a warmed Send allocates nothing. The client
// encodes into a frame buffer it keeps, and its batch of one is a field;
// the parent allocated both per send.
func TestClientSendAllocs(t *testing.T) {
	c, err := DialFunc(func() (net.Conn, error) { return discardConn{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := stormReport(1)
	got := testing.AllocsPerRun(100, func() { // the warm-up run grows the frame buffer
		if err := c.Send(r); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("Send allocates %.0f objects per report, want 0", got)
	}
}

// readCountingConn counts the reads a server makes of its connection.
type readCountingConn struct {
	net.Conn
	reads atomic.Int32
}

func (c *readCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestServerReadsPerBurst: frames that arrive together are read
// together. A hundred frames in one write cost the server a read or two
// of the connection (the last one waits for the next burst), where
// reading a header and then a body off the bare connection cost two
// reads per frame.
func TestServerReadsPerBurst(t *testing.T) {
	const frames = 100
	var batches [][]*telemetry.Report
	for seq := uint32(1); seq <= frames; seq++ {
		batches = append(batches, []*telemetry.Report{stormReport(seq)})
	}
	burst := fuzzFrames(t, batches...)

	store := NewStore(frames)
	srv := NewServer(store)
	srv.Logf = t.Logf
	ln := &pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	client, server := net.Pipe()
	conn := &readCountingConn{Conn: server}
	ln.conns <- conn
	srv.ServeListener(ln)
	defer srv.Stop()
	defer client.Close()

	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{1: frames}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := conn.reads.Load(); got > 4 {
		t.Errorf("%d frames in one write cost %d reads of the connection, ceiling 4", frames, got)
	}
}

// TestServerIngestsFrameLargerThanBuffer: a frame several times the
// connection's read buffer is read past it, not refused.
func TestServerIngestsFrameLargerThanBuffer(t *testing.T) {
	store := NewStore(100)
	srv := NewServer(store)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var last *telemetry.Report
	for seq := uint32(1); seq <= 40; seq++ { // 40 × 64 spikes × 8 channels ≈ 370 KB
		last = &telemetry.Report{ReaderID: 2, Seq: seq, Timestamp: at(int(seq))}
		for i := 0; i < 64; i++ {
			last.Spikes = append(last.Spikes, telemetry.SpikeRecord{FreqHz: float64(i), Channels: make([]complex128, 8)})
		}
		c.Queue(last)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{2: 40}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want, _ := last.Marshal()
	got, err := store.Latest(2).Marshal()
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("the last report of a large frame reads back differently (%v)", err)
	}
}

// BenchmarkServerIngest is one round of the ingest storm: 128
// single-report frames from one client over loopback TCP into a
// Server, then the high-water barrier that shows them all stored.
func BenchmarkServerIngest(b *testing.B) {
	const perRound = 128
	store := NewStore(2 * perRound)
	srv := NewServer(store)
	srv.Logf = b.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := stormReport(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < perRound; k++ {
			r.Seq++
			if err := c.Send(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := store.WaitHighWater(map[uint32]uint32{1: r.Seq}, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*perRound)/b.Elapsed().Seconds(), "reports/s")
}

// TestClientWriteDeadline: a peer that never drains must fail the send
// once the socket buffers fill, instead of hanging the reader's epoch
// forever.
func TestClientWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteTimeout = 100 * time.Millisecond
	c.Retry = RetryPolicy{Attempts: 2, BackoffMin: time.Millisecond, BackoffMax: time.Millisecond}
	stalled := <-accepted // held open, never read: the stalled collector
	defer stalled.Close()
	// No second collector to redial: the timeout must surface as a
	// spent retry budget, not be retried away on a fresh connection.
	ln.Close()

	// A report big enough that repeated sends must overflow the kernel
	// buffers of an unread connection.
	big := &telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0)}
	for i := 0; i < 256; i++ {
		big.Spikes = append(big.Spikes, telemetry.SpikeRecord{
			FreqHz:   float64(i),
			Channels: make([]complex128, 8),
		})
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Send(big); err != nil {
			if !errors.Is(err, ErrUplinkDegraded) || !strings.Contains(err.Error(), "timeout") {
				t.Fatalf("send failed with %v, want a write timeout past the retry budget", err)
			}
			return
		}
	}
	t.Fatal("sends to a stalled collector never failed")
}
