package faults

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// waitRecv polls until the indexed connection's sink holds want bytes
// (the reader goroutine appends just after the blocking pipe write
// returns, so assertions must not race it).
func waitRecv(t *testing.T, recv *[][]byte, mu *sync.Mutex, idx, want int) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := bytes.Clone((*recv)[idx])
		mu.Unlock()
		if len(got) >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// pipeDialer returns a dialer producing the client ends of net.Pipe
// pairs and a sink that accumulates everything the "server" ends
// receive, keyed by connection order.
func pipeDialer() (dial func() (net.Conn, error), received *[][]byte, mu *sync.Mutex) {
	var recv [][]byte
	var m sync.Mutex
	d := func() (net.Conn, error) {
		client, server := net.Pipe()
		m.Lock()
		idx := len(recv)
		recv = append(recv, nil)
		m.Unlock()
		go func() {
			buf := make([]byte, 1024)
			for {
				n, err := server.Read(buf)
				if n > 0 {
					m.Lock()
					recv[idx] = append(recv[idx], buf[:n]...)
					m.Unlock()
				}
				if err != nil {
					return
				}
			}
		}()
		return client, nil
	}
	return d, &recv, &m
}

// TestDropIsSilent: a dropped frame reports success to the writer and
// never reaches the peer, and the event callback sees its payload.
func TestDropIsSilent(t *testing.T) {
	inj := New(Config{Seed: 1, DropRate: 1})
	var events []Event
	inj.OnEvent = func(ev Event) {
		events = append(events, Event{Kind: ev.Kind, Stream: ev.Stream, Conn: ev.Conn, Frame: ev.Frame,
			Payload: bytes.Clone(ev.Payload)})
	}
	dial, recv, mu := pipeDialer()
	conn, err := inj.WrapDial("r1", dial)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := []byte("frame-1")
	n, err := conn.Write(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("dropped write returned (%d, %v), want silent success", n, err)
	}
	mu.Lock()
	got := len((*recv)[0])
	mu.Unlock()
	if got != 0 {
		t.Fatalf("peer received %d bytes of a dropped frame", got)
	}
	if len(events) != 1 || events[0].Kind != Drop || !bytes.Equal(events[0].Payload, frame) {
		t.Fatalf("events = %+v, want one Drop carrying the frame", events)
	}
	if st := inj.Stats("r1"); st.Drops != 1 || st.Frames != 1 || st.Conns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestKillForwardsThenErrors: the killed frame reaches the peer even
// though the writer sees an error — the duplicate-producing case — and
// the connection stays dead afterwards without closing the underlying
// socket (half-open, no FIN).
func TestKillForwardsThenErrors(t *testing.T) {
	inj := New(Config{Seed: 2, KillEvery: 3})
	dial, recv, mu := pipeDialer()
	conn, err := inj.WrapDial("r1", dial)()
	if err != nil {
		t.Fatal(err)
	}

	writes := []string{"f1", "f2", "f3-killed", "f4-dead"}
	var errs []error
	for _, w := range writes {
		_, err := conn.Write([]byte(w))
		errs = append(errs, err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("pre-kill writes failed: %v", errs[:2])
	}
	if !errors.Is(errs[2], ErrInjectedKill) {
		t.Fatalf("kill frame error = %v, want ErrInjectedKill", errs[2])
	}
	var ne net.Error
	if !errors.As(errs[2], &ne) || ne.Timeout() {
		t.Fatalf("kill error should be a non-timeout net.Error, got %v", errs[2])
	}
	if !errors.Is(errs[3], ErrInjectedKill) {
		t.Fatalf("post-kill write error = %v, want ErrInjectedKill", errs[3])
	}
	got := string(waitRecv(t, recv, mu, 0, len("f1f2f3-killed")))
	if want := "f1f2f3-killed"; got != want {
		t.Fatalf("peer received %q, want %q (killed frame must be forwarded)", got, want)
	}
	// Close on the dead conn must NOT close the underlying pipe: the
	// peer keeps blocking (half-open), it does not see EOF.
	if err := conn.Close(); err != nil {
		t.Fatalf("Close on killed conn: %v", err)
	}
	// Writes on the dead conn are not frames on the wire: 3 frames,
	// the third killed, the fourth rejected before accounting.
	if st := inj.Stats("r1"); st.Kills != 1 || st.Frames != 3 {
		t.Fatalf("stats = %+v, want 1 kill over 3 frames", st)
	}
}

// TestHalfOpenAfterKill: the underlying conn of a killed-and-closed
// wrapper is still open — a read on the peer side blocks rather than
// returning EOF. Verified with a raw pipe pair (no reader goroutine).
func TestHalfOpenAfterKill(t *testing.T) {
	client, server := net.Pipe()
	inj := New(Config{Seed: 3, KillEvery: 1})
	conn, _ := inj.WrapDial("r", func() (net.Conn, error) { return client, nil })()

	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		if _, err := server.Read(buf); err != nil { // the killed frame
			done <- err
			return
		}
		_, err := server.Read(buf) // must block: no FIN after Close
		done <- err
	}()
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjectedKill) {
		t.Fatalf("want kill on first frame, got %v", err)
	}
	conn.Close()
	select {
	case err := <-done:
		t.Fatalf("peer read returned (%v); a killed conn must stay half-open", err)
	default:
	}
	server.Close() // release the blocked goroutine
	if err := <-done; !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, io.EOF) {
		t.Logf("peer read released with %v", err)
	}
}

// TestInjectionDeterministic: the same seed and write sequence produce
// the identical event schedule, independent of wall-clock timing.
func TestInjectionDeterministic(t *testing.T) {
	run := func() []Event {
		inj := New(Config{Seed: 99, DropRate: 0.3, KillEvery: 7})
		var events []Event
		inj.OnEvent = func(ev Event) {
			ev.Payload = nil // identity is (kind, conn, frame)
			events = append(events, ev)
		}
		dial, _, _ := pipeDialer()
		wrapped := inj.WrapDial("reader-5", dial)
		conn, err := wrapped()
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 40; f++ {
			if _, err := conn.Write([]byte{byte(f)}); errors.Is(err, ErrInjectedKill) {
				conn.Close()
				if conn, err = wrapped(); err != nil { // reconnect like a robust client
					t.Fatal(err)
				}
			}
		}
		return events
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults injected at 30% drop + kill-every-7 over 40 frames")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedules diverge across identical seeds:\n%+v\n%+v", a, b)
	}
}

// TestZeroConfigIsTransparent: the zero config must not perturb the
// stream at all.
func TestZeroConfigIsTransparent(t *testing.T) {
	inj := New(Config{Seed: 5})
	dial, recv, mu := pipeDialer()
	conn, err := inj.WrapDial("r", dial)()
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 10; f++ {
		if _, err := conn.Write([]byte{'a' + byte(f)}); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	conn.Close()
	got := string(waitRecv(t, recv, mu, 0, 10))
	if got != "abcdefghij" {
		t.Fatalf("peer received %q", got)
	}
	if st := inj.Stats("r"); st.Drops != 0 || st.Kills != 0 || st.Frames != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{{DropRate: -0.1}, {DropRate: 1.5}, {DropRate: math.NaN()}, {KillEvery: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if (Config{}).Active() {
		t.Error("zero config reports active")
	}
	if !(Config{DropRate: 0.1}).Active() {
		t.Error("lossy config reports inactive")
	}
}

// TestChurnScheduleDeterministic: same seed, same schedule; and the
// Active/ActiveEpochs views must agree with each other.
func TestChurnScheduleDeterministic(t *testing.T) {
	ids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	const epochs = 60
	a := NewChurnSchedule(7, ids, epochs, 0.15)
	b := NewChurnSchedule(7, ids, epochs, 0.15)
	anyOffline, anyDeparture := false, false
	for _, id := range ids {
		active := 0
		for e := 0; e < epochs; e++ {
			if a.Active(id, e) != b.Active(id, e) {
				t.Fatalf("reader %d epoch %d diverges across identical seeds", id, e)
			}
			if a.Active(id, e) {
				active++
			} else {
				anyOffline = true
			}
		}
		if got := a.ActiveEpochs(id, epochs); got != active {
			t.Errorf("reader %d: ActiveEpochs = %d, Active sums to %d", id, got, active)
		}
		if a.Departures(id) > 0 {
			anyDeparture = true
		}
	}
	if !anyOffline || !anyDeparture {
		t.Error("15% churn over 8 readers × 60 epochs produced no departures")
	}
}

// TestChurnScheduleNilMeansAlwaysActive covers both the explicit nil
// and the rate-0 constructor result.
func TestChurnScheduleNilMeansAlwaysActive(t *testing.T) {
	var s *ChurnSchedule
	if !s.Active(3, 10) || s.ActiveEpochs(3, 10) != 10 || s.Departures(3) != 0 {
		t.Error("nil schedule must be always-active")
	}
	if got := NewChurnSchedule(1, []uint32{1}, 10, 0); got != nil {
		t.Errorf("rate 0 should construct nil, got %+v", got)
	}
}
