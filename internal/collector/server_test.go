package collector

import (
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
	big := &telemetry.Report{ReaderID: 1, Timestamp: at(0)}
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
