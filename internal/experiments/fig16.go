package experiments

import (
	"fmt"
	"math"

	"caraoke/internal/core"
	"caraoke/internal/phy"
)

// Fig16Result reproduces Fig 16: the time to decode a transponder id
// versus the number of colliding transponders. Queries are spaced 1 ms
// apart, so identification time = (queries combined) × 1 ms. The paper
// reports ≈4.2 ms for 2 colliders, ≈16.2 ms for 5, and <50 ms average
// for 10.
type Fig16Result struct {
	M []int
	// MeanMillis and MaxMillis are NaN at an m where no run decoded.
	MeanMillis []float64
	MaxMillis  []float64
	Failures   int // runs where the id never decoded within the budget
}

// RunFig16 sweeps collision sizes, decoding a randomly chosen target
// each run.
func RunFig16(seed int64, ms []int, runs, maxQueries int) (*Fig16Result, error) {
	s, err := newScene(seed)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		ms = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	res := &Fig16Result{M: ms}
	serial := uint64(9000)
	for _, m := range ms {
		var times []float64
		maxT := 0.0
		for r := 0; r < runs; r++ {
			devs := s.ringDevices(m, serial)
			serial += uint64(m)
			target := devs[s.rng.Intn(m)]
			// Locate the target's spike from an initial collision.
			mc, err := s.rd.Query(devs, s.rng)
			if err != nil {
				return nil, err
			}
			spikes, err := core.AnalyzeCapture(mc, s.rd.Params)
			if err != nil {
				return nil, err
			}
			cfo := target.CFO(s.rd.Params.ReaderLO)
			freq := cfo
			if sp, ok := spikeNear(spikes, cfo); ok {
				freq = sp.Freq
			}
			src := func() ([]complex128, error) {
				c, err := s.rd.Query(devs, s.rng)
				if err != nil {
					return nil, err
				}
				return c.Antennas[0], nil
			}
			// A decode error is an undecoded target: counted below, not returned.
			decoded, _ := core.DecodeAll(src, s.rd.Params.SampleRate, []float64{freq}, maxQueries)
			dr, ok := decoded[freq]
			if !ok || dr.Frame.ID() != target.ID() {
				res.Failures++
				continue
			}
			t := float64(dr.Queries) * phy.QueryPeriod.Seconds() * 1000
			times = append(times, t)
			if t > maxT {
				maxT = t
			}
		}
		mean, _ := meanStd(times)
		if len(times) == 0 {
			mean, maxT = math.NaN(), math.NaN()
		}
		res.MeanMillis = append(res.MeanMillis, mean)
		res.MaxMillis = append(res.MaxMillis, maxT)
	}
	return res, nil
}

// Table renders identification times.
func (r *Fig16Result) Table() *Table {
	t := &Table{
		Title:   "Fig 16 — identification time vs number of colliding transponders",
		Columns: []string{"colliders", "mean (ms)", "max (ms)"},
	}
	for i, m := range r.M {
		t.Cells = append(t.Cells, []string{
			fmt.Sprintf("%d", m), millis(r.MeanMillis[i]), millis(r.MaxMillis[i]),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ≈4.2 ms for a pair, ≈16.2 ms for five, <50 ms average for ten (1 ms per query)",
		fmt.Sprintf("decode failures within budget: %d", r.Failures))
	return t
}

// millis renders an identification time, or "—" where none was measured.
func millis(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return f1(v)
}
