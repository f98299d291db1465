package collector

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"caraoke/internal/telemetry"
)

// TotalReports returns the number of retained reports across all
// readers (retention trims per-reader history to the keep window).
func (s *Store) TotalReports() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, lg := range s.readers {
		n += len(lg.history)
	}
	return n
}

// historyFor returns the live retained window for one reader: the
// retention regression tests assert on the backing array itself.
func (s *Store) historyFor(readerID uint32) []*telemetry.Report {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entry(readerID).history
}

// addTracked adds a report and returns a weak pointer to it, from a
// frame of its own so that no stack slot of the caller keeps it alive.
//
//go:noinline
func addTracked(s *Store, readerID, seq uint32) weak.Pointer[telemetry.Report] {
	r := &telemetry.Report{ReaderID: readerID, Seq: seq, Timestamp: at(int(seq))}
	s.Add(r)
	return weak.Make(r)
}

// TestTrimReleasesDroppedReports: a report trimmed out of a full window
// is garbage. The trim re-slices past the dropped slots, so the
// backing array's head outlives them until append regrows it; the
// slots must be cleared, or every dropped report (spikes and all) would
// stay reachable through that head. The window itself must hold the
// newest keep reports in a backing array of at most twice keep.
func TestTrimReleasesDroppedReports(t *testing.T) {
	const keep = 4
	s := NewStore(keep)
	first := addTracked(s, 7, 1)
	for seq := uint32(2); seq <= keep+2; seq++ {
		s.Add(&telemetry.Report{ReaderID: 7, Seq: seq, Timestamp: at(int(seq))})
	}
	h := s.historyFor(7)
	if len(h) != keep {
		t.Fatalf("retained %d reports, keep is %d", len(h), keep)
	}
	if h[0].Seq != 3 || h[keep-1].Seq != keep+2 {
		t.Fatalf("window holds seqs %d..%d, want 3..%d", h[0].Seq, h[keep-1].Seq, keep+2)
	}
	if c := cap(h); c > 2*keep {
		t.Errorf("backing array grew to cap %d for keep %d", c, keep)
	}
	for i := 0; i < 3 && first.Value() != nil; i++ {
		runtime.GC()
	}
	if first.Value() != nil {
		t.Fatal("a report trimmed out of the window is still reachable")
	}
	runtime.KeepAlive(s) // the store, not only the report, must outlive the collections
}

// TestStoreConcurrent hammers every Store entry point from parallel
// goroutines; run under -race it is the regression test for the
// store's locking discipline.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(64)
	const (
		writers   = 4
		perWriter = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(&telemetry.Report{
					ReaderID:  uint32(w % 3),
					Seq:       uint32(i + 1),
					Timestamp: at(i % 60),
					Count:     i,
					Spikes: []telemetry.SpikeRecord{
						{FreqHz: float64(1000 * w), DecodedID: uint64(w + 1)},
					},
				})
			}
		}(w)
	}
	for q := 0; q < writers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Latest(uint32(q % 3))
				s.Readers()
				s.CountSeries(uint32(q%3), at(0), at(59))
				s.FindCar(uint64(q + 1))
				s.SightingsByCFO(float64(1000*q), 10)
				s.TotalReports()
			}
		}(q)
	}
	wg.Wait()
	if got := s.TotalReports(); got != 3*64 {
		// 3 reader ids, each saturated well past its 64-report window.
		t.Errorf("retained %d reports, want %d", got, 3*64)
	}
	for _, id := range s.Readers() {
		if s.Latest(id) == nil {
			t.Errorf("reader %d has history but no latest report", id)
		}
	}
}

// TestStoreTrimSteadyState confirms the window keeps sliding correctly
// long after the first trim (a trim runs on every Add once saturated,
// and append regrows the backing array every few of them).
func TestStoreTrimSteadyState(t *testing.T) {
	const keep = 8
	s := NewStore(keep)
	for i := 0; i < 10*keep; i++ {
		s.Add(&telemetry.Report{ReaderID: 1, Seq: uint32(i + 1), Timestamp: at(i % 60)})
	}
	if got := s.Latest(1).Seq; got != 10*keep {
		t.Errorf("latest seq %d, want %d", got, 10*keep)
	}
	if got := s.SeqsReceived(1); got != 10*keep {
		t.Errorf("received counter %d, want %d (must not be capped by retention)", got, 10*keep)
	}
	if got := s.TotalReports(); got != keep {
		t.Errorf("retained %d reports, want %d", got, keep)
	}
	h := s.historyFor(1)
	for i, r := range h {
		if want := uint32(10*keep - keep + i + 1); r.Seq != want {
			t.Fatalf("window[%d] holds seq %d, want %d (%s)", i, r.Seq, want,
				fmt.Sprintf("full window %v", seqs(h)))
		}
	}
}

func seqs(h []*telemetry.Report) []uint32 {
	out := make([]uint32, len(h))
	for i, r := range h {
		out[i] = r.Seq
	}
	return out
}
