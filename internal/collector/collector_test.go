package collector

import (
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

func at(sec int) time.Time {
	return time.Date(2015, 8, 17, 12, 0, sec, 0, time.UTC)
}

func TestStoreAddLatestAndSeries(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 5; i++ {
		s.Add(&telemetry.Report{ReaderID: 7, Seq: uint32(i + 1), Timestamp: at(i), Count: i * 2})
	}
	s.Add(&telemetry.Report{ReaderID: 9, Seq: 1, Timestamp: at(0), Count: 1})
	if got := s.Latest(7); got == nil || got.Seq != 5 {
		t.Fatalf("Latest = %+v", got)
	}
	if got := s.Latest(42); got != nil {
		t.Fatalf("Latest for unknown reader = %+v", got)
	}
	ts, counts := s.CountSeries(7, at(1), at(3))
	if len(ts) != 3 || counts[0] != 2 || counts[2] != 6 {
		t.Fatalf("series = %v %v", ts, counts)
	}
	ids := s.Readers()
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Fatalf("readers = %v", ids)
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 10; i++ {
		s.Add(&telemetry.Report{ReaderID: 1, Seq: uint32(i + 1), Timestamp: at(i)})
	}
	ts, _ := s.CountSeries(1, at(0), at(100))
	if len(ts) != 3 {
		t.Fatalf("kept %d reports, want 3", len(ts))
	}
	if got := s.Latest(1); got.Seq != 10 {
		t.Fatalf("latest after eviction = %d", got.Seq)
	}
}

func TestFindCar(t *testing.T) {
	s := NewStore(100)
	s.Add(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 100e3, DecodedID: 0xABC}}})
	s.Add(&telemetry.Report{ReaderID: 2, Seq: 1, Timestamp: at(5),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 101e3, DecodedID: 0xABC}}})
	sight, ok := s.FindCar(0xABC)
	if !ok || sight.ReaderID != 2 || !sight.Seen.Equal(at(5)) {
		t.Fatalf("FindCar = %+v ok=%v", sight, ok)
	}
	if _, ok := s.FindCar(0xDEF); ok {
		t.Error("unknown car found")
	}
}

// TestDecodedIDAtNearest: of the decoded ids within tol of a CFO,
// DecodedIDAt names the one sighted nearest it — the car a speed check
// at that CFO measured — not the smallest; an exact tie goes to the
// smaller id, and nothing within tol is zero.
func TestDecodedIDAtNearest(t *testing.T) {
	s := NewStore(100)
	s.Add(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0), Spikes: []telemetry.SpikeRecord{
		{FreqHz: 100e3 - 900, DecodedID: 0x111}, {FreqHz: 100e3 + 200, DecodedID: 0x999}}})
	if got := s.DecodedIDAt(100e3, 1e3); got != 0x999 {
		t.Errorf("DecodedIDAt = %#x, want 0x999 (200 Hz off; 0x111 is 900 Hz off)", got)
	}
	s.Add(&telemetry.Report{ReaderID: 2, Seq: 1, Timestamp: at(1), Spikes: []telemetry.SpikeRecord{
		{FreqHz: 100e3 - 200, DecodedID: 0x555}}})
	if got := s.DecodedIDAt(100e3, 1e3); got != 0x555 {
		t.Errorf("DecodedIDAt on a 200 Hz tie = %#x, want the smaller id 0x555", got)
	}
	if got := s.DecodedIDAt(100e3, 100); got != 0 {
		t.Errorf("DecodedIDAt with nothing within 100 Hz = %#x, want 0", got)
	}
}

func TestSightingsByCFO(t *testing.T) {
	s := NewStore(100)
	s.Add(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500e3}}})
	s.Add(&telemetry.Report{ReaderID: 1, Seq: 2, Timestamp: at(2),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500.4e3}}})
	s.Add(&telemetry.Report{ReaderID: 2, Seq: 1, Timestamp: at(3),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 499.8e3}, {FreqHz: 900e3}}})
	got := s.SightingsByCFO(500e3, 1e3)
	if len(got) != 2 {
		t.Fatalf("sightings = %+v", got)
	}
	if !got[1].Seen.Equal(at(2)) {
		t.Errorf("reader 1 sighting should be the most recent: %+v", got[1])
	}
	if got[2].FreqHz != 499.8e3 {
		t.Errorf("reader 2 matched wrong spike: %+v", got[2])
	}
}

func TestServerEndToEndTCP(t *testing.T) {
	store := NewStore(100)
	srv := NewServer(store)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	// Two readers stream reports concurrently over real TCP.
	send := func(readerID uint32, n int) error {
		c, err := Dial(addr.String(), time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			r := &telemetry.Report{
				ReaderID:  readerID,
				Seq:       uint32(i + 1),
				Timestamp: at(i),
				Count:     i,
				Spikes:    []telemetry.SpikeRecord{{FreqHz: 300e3, Channels: []complex128{1 + 2i}}},
			}
			if err := c.Send(r); err != nil {
				return err
			}
		}
		return nil
	}
	errc := make(chan error, 2)
	go func() { errc <- send(10, 20) }()
	go func() { errc <- send(11, 20) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// Ingest is asynchronous; poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if a, b := store.Latest(10), store.Latest(11); a != nil && b != nil && a.Seq == 20 && b.Seq == 20 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range []uint32{10, 11} {
		got := store.Latest(id)
		if got == nil || got.Seq != 20 {
			t.Fatalf("reader %d: latest = %+v", id, got)
		}
		if len(got.Spikes) != 1 || got.Spikes[0].Channels[0] != 1+2i {
			t.Fatalf("reader %d: spike payload corrupted: %+v", id, got.Spikes)
		}
	}
}

// TestClientRefusesSeqZero: a Seq-0 report is refused at the sender —
// Send returns the encode error and counts it dropped, the uplink
// untouched — so a report sent after it on the same client lands. Were
// it written, the server would refuse it and drop the connection.
func TestClientRefusesSeqZero(t *testing.T) {
	store := NewStore(10)
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
	if err := c.Send(robustReport(1, 0)); err == nil {
		t.Error("Send of a seq-0 report returned no error")
	}
	if got := c.Stats().Dropped; got != 1 {
		t.Errorf("Stats().Dropped = %d after a seq-0 send, want 1", got)
	}
	if err := c.Send(robustReport(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{1: 2}, 3*time.Second); err != nil {
		t.Fatalf("the report after the seq-0 one did not land: %v", err)
	}
}

func TestServerStopUnblocks(t *testing.T) {
	srv := NewServer(NewStore(10))
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		srv.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with an open connection")
	}
}
