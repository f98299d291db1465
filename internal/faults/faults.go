// Package faults is the seeded fault-injection layer the city harness
// uses to model the paper's deployment reality: cheap pole- and
// parked-car-mounted readers ("Parked Cars are Excellent Roadside
// Units") uplinking over flaky urban links. It provides two
// deterministic primitives:
//
//   - An Injector that wraps reader uplink connections (net.Conn) and,
//     driven by per-connection seeded RNG streams, silently drops
//     frames and kills connections mid-run. A killed
//     connection is abandoned half-open — no FIN reaches the peer —
//     which is exactly how a reader dying mid-uplink looks to the
//     collector.
//
//   - A ChurnSchedule that decides, per reader and per epoch, whether
//     the reader is present at all — the pop-up RSU population where
//     parked cars join and leave the reader fleet mid-run.
//
// Everything is a pure function of the configured seed plus the order
// of operations on each stream, so two runs with the same seed inject
// exactly the same faults and the recovery statistics they provoke are
// exactly reproducible — which is what lets chaos runs assert their
// loss/recovery counters instead of eyeballing them.
//
// The injector is framing-agnostic: it treats every Write call as one
// frame. Callers must therefore write each wire frame with a single
// Write (internal/telemetry does), or a dropped partial write would
// desynchronize the stream instead of cleanly losing a frame.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
)

// ErrInjectedKill is the error a killed connection's writes return. It
// reports Timeout() == false and Temporary() == false like a real
// ECONNRESET, so clients exercise their reconnect path, not a retry-
// in-place path.
var ErrInjectedKill = errors.New("faults: injected connection kill")

// Config sets the per-connection fault rates. The zero value injects
// nothing (every wrapped connection behaves like the bare one).
type Config struct {
	// Seed drives every injection decision. Streams and connections
	// derive independent RNG streams from it, so decisions on one
	// uplink never perturb another's.
	Seed int64
	// DropRate is the per-frame probability that a Write is silently
	// discarded: the caller sees success, the peer sees nothing — the
	// unrecoverable loss a fire-and-forget uplink cannot detect.
	DropRate float64
	// KillEvery kills the connection on every k-th frame: the frame is
	// forwarded to the peer, but the Write returns ErrInjectedKill and
	// every later Write fails — the "reset after the data left" case
	// that makes at-least-once senders produce duplicates. 0 never
	// kills.
	KillEvery int
}

// Active reports whether the config injects any fault at all.
func (c Config) Active() bool {
	return c.DropRate > 0 || c.KillEvery > 0
}

// Validate rejects configs outside the model.
func (c Config) Validate() error {
	if !(c.DropRate >= 0 && c.DropRate <= 1) { // NaN included
		return fmt.Errorf("faults: drop rate %g outside [0,1]", c.DropRate)
	}
	if c.KillEvery < 0 {
		return fmt.Errorf("faults: kill interval %d must be non-negative", c.KillEvery)
	}
	return nil
}

// Kind labels an injected fault event.
type Kind int

const (
	// Drop: the frame was silently discarded; the writer saw success.
	Drop Kind = iota
	// Kill: the frame was forwarded, then the connection was killed;
	// the writer saw an error for data that actually arrived.
	Kill
)

func (k Kind) String() string {
	if k == Drop {
		return "drop"
	}
	return "kill"
}

// Event describes one injected fault, delivered synchronously to
// Injector.OnEvent from the goroutine performing the faulted Write.
// Payload is the exact bytes of the affected frame; it is only valid
// for the duration of the callback (the caller may reuse the buffer).
type Event struct {
	Kind    Kind
	Stream  string // the name given to WrapDial
	Conn    int    // 1-based connection index within the stream
	Frame   int    // 1-based frame index within the connection
	Payload []byte
}

// StreamStats counts one stream's traffic and injected faults across
// all of its connections.
type StreamStats struct {
	Conns  int // connections dialed
	Frames int // frames written (including dropped and killed ones)
	Drops  int // frames silently discarded
	Kills  int // connections killed (== frames forwarded-then-errored)
}

// Injector wraps dialers with fault-injecting connections. One
// injector serves many streams (one per reader uplink); each stream's
// connections draw from RNG streams derived from (Seed, stream name,
// connection index), so the injection schedule is independent of
// wall-clock timing and of other streams' progress.
type Injector struct {
	cfg Config
	// OnEvent, if set, observes every injected fault synchronously.
	// Handlers must not retain Event.Payload past the call.
	OnEvent func(Event)

	mu    sync.Mutex
	stats map[string]*StreamStats
}

// New creates an injector. The config is validated; an invalid config
// panics (it is always a programming error, and the zero value is
// valid).
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg, stats: make(map[string]*StreamStats)}
}

// Stats returns a snapshot of one stream's counters.
func (in *Injector) Stats(stream string) StreamStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.stats[stream]; st != nil {
		return *st
	}
	return StreamStats{}
}

func (in *Injector) streamLocked(name string) *StreamStats {
	st := in.stats[name]
	if st == nil {
		st = &StreamStats{}
		in.stats[name] = st
	}
	return st
}

// WrapDial returns a dialer that wraps every connection dial produces
// with this injector's faults. Connections on a stream are numbered in
// dial order; a single-goroutine caller (a reader's measure-and-uplink loop)
// therefore gets a fully deterministic injection schedule.
func (in *Injector) WrapDial(stream string, dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		raw, err := dial()
		if err != nil {
			return nil, err
		}
		in.mu.Lock()
		st := in.streamLocked(stream)
		st.Conns++
		idx := st.Conns
		in.mu.Unlock()
		return &faultConn{
			Conn:   raw,
			inj:    in,
			stream: stream,
			idx:    idx,
			rng:    rand.New(rand.NewSource(connSeed(in.cfg.Seed, stream, idx))),
		}, nil
	}
}

// connSeed derives a connection's RNG seed from the injector seed, the
// stream name, and the connection index.
func connSeed(seed int64, stream string, idx int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return seed ^ int64(h.Sum64()) ^ int64(idx)*0x9E3779B97F4A7C1
}

// faultConn is one wrapped uplink connection. Writes are owned by a
// single sender goroutine (the telemetry client contract), so frames
// and rng need no lock; the injector's shared counters do.
type faultConn struct {
	net.Conn
	inj    *Injector
	stream string
	idx    int
	rng    *rand.Rand
	frames int
	dead   bool
}

// killError satisfies net.Error so callers treating the uplink
// generically see a non-temporary, non-timeout network error.
type killError struct{}

func (killError) Error() string   { return ErrInjectedKill.Error() }
func (killError) Timeout() bool   { return false }
func (killError) Temporary() bool { return false }
func (killError) Unwrap() error   { return ErrInjectedKill }

func (c *faultConn) Write(b []byte) (int, error) {
	if c.dead {
		return 0, killError{}
	}
	cfg := c.inj.cfg
	c.frames++
	c.inj.mu.Lock()
	c.inj.streamLocked(c.stream).Frames++
	c.inj.mu.Unlock()

	kill := cfg.KillEvery > 0 && c.frames%cfg.KillEvery == 0
	if !kill && cfg.DropRate > 0 && c.rng.Float64() < cfg.DropRate {
		c.note(Drop, b)
		// The caller believes the frame was delivered; this is the
		// loss the drain barrier's loss budget accounts for.
		return len(b), nil
	}
	n, err := c.Conn.Write(b)
	if err != nil {
		return n, err
	}
	if kill {
		// The frame reached the peer, but the writer learns otherwise:
		// an at-least-once sender will reconnect and redeliver it,
		// producing the duplicate the store's dedupe must absorb.
		c.dead = true
		c.note(Kill, b)
		return 0, killError{}
	}
	return n, nil
}

// Close leaves a killed connection half-open: the underlying socket is
// not closed, so the peer never sees a FIN — its read blocks until its
// own idle deadline reaps the connection. Live connections close
// normally.
func (c *faultConn) Close() error {
	if c.dead {
		return nil
	}
	return c.Conn.Close()
}

func (c *faultConn) note(kind Kind, payload []byte) {
	c.inj.mu.Lock()
	st := c.inj.streamLocked(c.stream)
	if kind == Drop {
		st.Drops++
	} else {
		st.Kills++
	}
	cb := c.inj.OnEvent
	c.inj.mu.Unlock()
	if cb != nil {
		cb(Event{Kind: kind, Stream: c.stream, Conn: c.idx, Frame: c.frames, Payload: payload})
	}
}
