package core

import "testing"

// TestAnalyzeCapturesSteadyStateAllocs: the multi-query analysis on a
// warmed Scratch — the batched fused-spectrum stage included —
// allocates nothing in steady state on the serial path.
func TestAnalyzeCapturesSteadyStateAllocs(t *testing.T) {
	s := newTestScene(t, 4101)
	mcs := s.collideQueries(s.placedDevices(12), 8)
	var sc Scratch
	if _, err := sc.AnalyzeCaptures(mcs, s.param, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sc.AnalyzeCaptures(mcs, s.param, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AnalyzeCaptures allocates %.1f objects/op, want 0", allocs)
	}
}

// TestParallelChunksWorkers pins the static chunking contract: every
// index covered exactly once, chunks contiguous, any worker count.
func TestParallelChunksWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 8, 100} {
		for _, workers := range []int{1, 2, 3, 8, 16} {
			seen := make([]int, n)
			parallelChunksWorkers(n, workers, func(w, lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d,%d) dispatched", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}
