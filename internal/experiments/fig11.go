package experiments

import (
	"fmt"
	"strings"

	"caraoke/internal/core"
	"caraoke/internal/rfsim"
)

// Fig11Result reproduces Fig 11: counting accuracy versus the number
// of colliding transponders, with the paper's empirical CFO population.
// Accuracy per run is 1 − |estimate − m|/m, averaged over runs — 100 %
// means exact counts. A single-query ablation accompanies the deployed
// 10-query configuration (§10's duty cycle window).
type Fig11Result struct {
	M              []int
	Accuracy       []float64 // 10-query pipeline
	AccuracySingle []float64 // single-capture ablation
}

// RunFig11 sweeps collision sizes. runs controls Monte-Carlo depth
// (the paper used 1000 per point; 25–100 reproduces the shape).
func RunFig11(seed int64, ms []int, runs int) (*Fig11Result, error) {
	s, err := newScene(seed)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		ms = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	res := &Fig11Result{M: ms}
	serial := uint64(1)
	for _, m := range ms {
		var accMulti, accSingle float64
		for r := 0; r < runs; r++ {
			devs := s.ringDevices(m, serial)
			serial += uint64(m)
			// One 10-query window, kept: the ablation counts its first.
			mcs := make([]*rfsim.MultiCapture, 10)
			for q := range mcs {
				if mcs[q], err = s.rd.Query(devs, s.rng); err != nil {
					return nil, err
				}
			}
			multi, err := core.CountAcrossQueries(mcs, s.rd.Params)
			if err != nil {
				return nil, err
			}
			single, err := core.CountAcrossQueries(mcs[:1], s.rd.Params)
			if err != nil {
				return nil, err
			}
			accMulti += runAccuracy(multi.Count, m)
			accSingle += runAccuracy(single.Count, m)
		}
		res.Accuracy = append(res.Accuracy, accMulti/float64(runs))
		res.AccuracySingle = append(res.AccuracySingle, accSingle/float64(runs))
	}
	return res, nil
}

func runAccuracy(est, truth int) float64 {
	err := est - truth
	if err < 0 {
		err = -err
	}
	a := 1 - float64(err)/float64(truth)
	if a < 0 {
		a = 0
	}
	return a
}

// Table renders the accuracy sweep.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title:   "Fig 11 — counting accuracy vs number of colliding transponders",
		Columns: []string{"m", "accuracy (10 queries)", "accuracy (1 query)"},
	}
	for i, m := range r.M {
		t.Cells = append(t.Cells, []string{
			fmt.Sprintf("%d", m), pct(r.Accuracy[i]), pct(r.AccuracySingle[i]),
		})
	}
	// Say of the ablation only what the rows above say.
	var singleWins []string
	for i, m := range r.M {
		if r.AccuracySingle[i] > r.Accuracy[i] {
			singleWins = append(singleWins, fmt.Sprint(m))
		}
	}
	ablation := "multi-query is at least as accurate as single-query at every m"
	if len(singleWins) > 0 {
		ablation = "single-query beats multi-query at m = " + strings.Join(singleWins, ", ")
	}
	t.Notes = append(t.Notes,
		"paper: >99% accuracy below 40 colliding transponders, dropping toward ~95% at 50",
		"shape check: accuracy is near-perfect at small m and degrades as CFO bins saturate; "+ablation)
	return t
}
