package core

import "testing"

// TestAnalyzeCapturesSteadyStateAllocs: the multi-query analysis on a
// warmed Scratch — the per-capture fused-spectrum stage included —
// allocates nothing in steady state.
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
