package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"caraoke/internal/traffic"
)

// Fig12Result reproduces Fig 12: the number of cars a reader counts at
// an intersection over two light cycles, for the quiet street (A) and
// the busy one (C): the backlog builds during red and clears on green.
type Fig12Result struct {
	TimeSec []float64
	CountA  []int
	CountC  []int
	PhaseA  []traffic.Phase
	PhaseC  []traffic.Phase
	// Totals over the run for the busier-street ratio check.
	TotalA, TotalC int
}

// RunFig12 drives the intersection simulation and samples per second.
// Per the paper's observation, street C carries ≈10× street A's
// traffic while its green is only 3× longer.
func RunFig12(seed int64, cycles int) (*Fig12Result, error) {
	cfg := traffic.DefaultIntersectionConfig()
	ix, err := traffic.NewIntersection(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	dt := 100 * time.Millisecond
	warm := cfg.Timing.Cycle() // discard one warm-up cycle
	span := warm + time.Duration(cycles)*cfg.Timing.Cycle()
	nextSample := warm
	for ix.Now() < span {
		ix.Step(dt)
		if ix.Now() >= nextSample {
			pA, pC := cfg.Timing.PhaseAt(ix.Now())
			res.TimeSec = append(res.TimeSec, (ix.Now() - warm).Seconds())
			res.CountA = append(res.CountA, ix.CountNear(0, 30, true))
			res.CountC = append(res.CountC, ix.CountNear(1, 30, true))
			res.PhaseA = append(res.PhaseA, pA)
			res.PhaseC = append(res.PhaseC, pC)
			nextSample += time.Second
		}
	}
	for i := range res.CountA {
		res.TotalA += res.CountA[i]
		res.TotalC += res.CountC[i]
	}
	return res, nil
}

// Table renders a compact view of the series.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		Title:   "Fig 12 — traffic monitoring at an intersection (cars within reader range)",
		Columns: []string{"t (s)", "street A", "light A", "street C", "light C"},
	}
	for i := range r.TimeSec {
		if i%5 != 0 { // print every 5th second
			continue
		}
		t.Cells = append(t.Cells, []string{
			f1(r.TimeSec[i]),
			fmt.Sprintf("%d", r.CountA[i]), r.PhaseA[i].String(),
			fmt.Sprintf("%d", r.CountC[i]), r.PhaseC[i].String(),
		})
	}
	ratio := float64(r.TotalC) / float64(max(1, r.TotalA))
	t.Notes = append(t.Notes,
		fmt.Sprintf("street C / street A load ratio over the run: %.1f (paper: ≈10)", ratio),
		"paper: backlog accumulates during red and clears during green")
	return t
}
