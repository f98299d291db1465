package city

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// assertResultsEqual compares everything a Result summarizes — the
// per-intersection statistics, decoded-id set, parked-spot map, score
// and run totals. Store internals and wall-clock are deliberately not
// compared; cross-reader arrival order is allowed to differ.
func assertResultsEqual(t *testing.T, a, b *Result, what string) {
	t.Helper()
	if a.Epochs != b.Epochs || a.TotalReports != b.TotalReports {
		t.Errorf("%s: run sizes diverge: %d/%d reports, %d/%d epochs",
			what, a.TotalReports, b.TotalReports, a.Epochs, b.Epochs)
	}
	if !reflect.DeepEqual(a.PerIntersection, b.PerIntersection) {
		t.Errorf("%s: per-intersection stats diverge:\n%+v\n%+v",
			what, a.PerIntersection, b.PerIntersection)
	}
	if !reflect.DeepEqual(a.Decoded, b.Decoded) {
		t.Errorf("%s: decoded sets diverge: %v vs %v", what, a.Decoded, b.Decoded)
	}
	if !reflect.DeepEqual(a.ParkedSpots, b.ParkedSpots) {
		t.Errorf("%s: parked spots diverge: %v vs %v", what, a.ParkedSpots, b.ParkedSpots)
	}
	if !reflect.DeepEqual(a.Score, b.Score) {
		t.Errorf("%s: scores diverge:\n%+v\n%+v", what, a.Score, b.Score)
	}
}

// TestPipelinedMatchesLockstep is the determinism oracle the run loop
// rests on: free-running readers and the lockstep barrier hook must
// produce identical Results for the same seed — decode epochs, parked
// cars and batched uplinks included.
func TestPipelinedMatchesLockstep(t *testing.T) {
	cfgs := map[string]Config{
		"plain": {
			Readers: 3, Vehicles: 24, Duration: 6 * time.Second, Seed: 42,
			DecodeEvery: -1,
		},
		"decode+parked": {
			Readers: 2, Vehicles: 10, Parked: 4, Duration: 6 * time.Second,
			Seed: 7, DecodeEvery: 2,
		},
		"batched": {
			Readers: 4, Vehicles: 30, Duration: 5 * time.Second, Seed: 3,
			DecodeEvery: -1, Batch: 3,
		},
	}
	for name, cfg := range cfgs {
		lock := cfg
		lock.lockstep = true
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s pipelined: %v", name, err)
		}
		b, err := Run(lock)
		if err != nil {
			t.Fatalf("%s lockstep: %v", name, err)
		}
		assertResultsEqual(t, a, b, name)
	}
}

// TestPipelinedSkewedReaderMatchesLockstep drives the run loop
// with one deliberately slow reader (injected per-measure delay), so
// fast readers run several epochs ahead and their batches land out of
// order relative to the straggler's. The store must key everything by
// (ReaderID, Seq) — per-reader high-water marks complete, per-reader
// history intact — and the Result must still match lockstep exactly.
// Run under -race this is also the no-shared-mutable-state proof for
// readers executing different epochs concurrently.
func TestPipelinedSkewedReaderMatchesLockstep(t *testing.T) {
	cfg := Config{
		Readers: 3, Vehicles: 24, Duration: 5 * time.Second, Seed: 42,
		DecodeEvery: 2, Batch: 2,
	}
	skewed := cfg
	skewed.measureDelay = func(readerID uint32, epoch int) time.Duration {
		if readerID == 2 {
			return 3 * time.Millisecond
		}
		return 0
	}
	a, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	lock := cfg
	lock.lockstep = true
	b, err := Run(lock)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, a, b, "skewed")

	epochs := a.Epochs
	for id := uint32(1); id <= 3; id++ {
		if got := a.Store.Latest(id).Seq; got != uint32(epochs) {
			t.Errorf("reader %d latest seq %d, want %d", id, got, epochs)
		}
		_, counts := a.Store.CountSeries(id, a.Start, a.End)
		if len(counts) != epochs {
			t.Errorf("reader %d retained %d reports, want %d", id, len(counts), epochs)
		}
	}
}

// TestLockstepBarrierHoldsReadersBack proves the lockstep hook is a
// barrier and not a no-op — which the result-equality tests above cannot
// see, since both produce the same Result by design. Reader 2 stalls
// inside epoch 1. Without the hook the other readers must run ahead of
// it (by at most lookahead epochs plus the one in hand and the one being
// fed); with it none may enter epoch 2 until reader 2 is through its
// stall.
func TestLockstepBarrierHoldsReadersBack(t *testing.T) {
	const slow, stallEpoch = 2, 1
	cfg := Config{
		Readers: 3, Vehicles: 12, Duration: 8 * time.Second, Seed: 42,
		DecodeEvery: -1,
	}

	// Pipelined: the stall ends only when a fast reader is seen ahead.
	var mu sync.Mutex
	stalled, ranAhead, furthest := false, false, 0
	ahead := make(chan struct{})
	cfg.measureDelay = func(readerID uint32, epoch int) time.Duration {
		if readerID == slow && epoch == stallEpoch {
			mu.Lock()
			stalled = true
			mu.Unlock()
			select {
			case <-ahead:
			case <-time.After(10 * time.Second):
			}
			mu.Lock()
			stalled = false
			mu.Unlock()
			return 0
		}
		mu.Lock()
		defer mu.Unlock()
		if stalled && epoch > furthest {
			furthest = epoch
			if !ranAhead && epoch > stallEpoch {
				ranAhead = true
				close(ahead)
			}
		}
		return 0
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !ranAhead {
		t.Error("pipelined: no reader ran ahead of the stalled one")
	}
	if bound := stallEpoch + lookahead + 1; furthest > bound {
		t.Errorf("pipelined: a reader reached epoch %d while reader %d stalled in epoch %d; lookahead %d bounds it to %d",
			furthest, slow, stallEpoch, lookahead, bound)
	}

	// Lockstep: the same stall, on a timer; nobody may pass it.
	var released atomic.Bool
	var early atomic.Int64
	cfg.lockstep = true
	cfg.measureDelay = func(readerID uint32, epoch int) time.Duration {
		switch {
		case readerID == slow && epoch == stallEpoch:
			time.Sleep(100 * time.Millisecond)
			released.Store(true)
		case epoch > stallEpoch && !released.Load():
			early.Add(1)
		}
		return 0
	}
	// A barrier that strands its senders hangs the run; bound the wait
	// so that shows up as this test failing, not as the suite timing out.
	ran := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		ran <- err
	}()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("lockstep: run still going after 30 s (%d early epoch entries so far)", early.Load())
	}
	if n := early.Load(); n > 0 {
		t.Errorf("lockstep: %d epoch entries past epoch %d while reader %d was still inside it", n, stallEpoch, slow)
	}
}

// TestDrainTimeoutScales: the end-of-run ingest deadline must grow
// with the number of reports in flight instead of being a constant a
// city-day run can outlive (regression for the hard-coded 10 s wait).
func TestDrainTimeoutScales(t *testing.T) {
	if got := drainTimeout(1, 1); got < 10*time.Second {
		t.Errorf("floor = %v, want ≥ 10s", got)
	}
	smoke := drainTimeout(30, 4)
	cityDay := drainTimeout(86400, 64)
	if cityDay <= smoke {
		t.Errorf("city-day timeout %v not above smoke-test timeout %v", cityDay, smoke)
	}
	if cityDay < 10*time.Minute {
		t.Errorf("city-day timeout %v leaves no headroom for 5.5M reports", cityDay)
	}
}
