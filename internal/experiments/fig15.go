package experiments

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"caraoke/internal/clock"
	"caraoke/internal/core"
	"caraoke/internal/geom"
)

// Fig15Result reproduces Fig 15: detected versus actual car speed,
// 10–50 mph, using two poles 200 ft apart and NTP-synchronized clocks.
// The paper's error stays within 8 % (1–4 mph).
type Fig15Result struct {
	ActualMPH   []float64
	MeanMPH     []float64
	P90MPH      []float64
	MaxRelError float64
}

// RunFig15 sweeps speeds with `runs` trials each. Position errors are
// drawn from the localization error budget (the §7 bound at the 13 ft
// pole), and timing errors from the NTP model.
func RunFig15(seed int64, speedsMPH []float64, runs int) (*Fig15Result, error) {
	if len(speedsMPH) == 0 {
		speedsMPH = []float64{10, 20, 30, 40, 50}
	}
	rng := rand.New(rand.NewSource(seed))
	sep := geom.Feet(200) // two poles 200 ft apart (§12.3)
	maxXErr := geom.Feet(geom.MaxXError(13, 2, 12))
	base := time.Date(2015, 8, 17, 15, 0, 0, 0, time.UTC)
	res := &Fig15Result{ActualMPH: speedsMPH}

	for _, mph := range speedsMPH {
		v := core.MetersPerSecond(mph)
		var est []float64
		for r := 0; r < runs; r++ {
			// Two readers with independently NTP-disciplined clocks.
			c1 := clock.New(time.Duration(rng.Intn(400)-200)*time.Millisecond, 25, base)
			c2 := clock.New(time.Duration(rng.Intn(400)-200)*time.Millisecond, 25, base)
			for i := 0; i < 3; i++ {
				clock.Sync(c1, base.Add(time.Duration(i)*time.Minute), rng)
				clock.Sync(c2, base.Add(time.Duration(i)*time.Minute), rng)
			}
			// The car passes pole 1 at t0 and pole 2 sep/v later; each
			// pole localizes with a bounded along-road error.
			t0 := base.Add(10 * time.Minute)
			t1 := t0.Add(time.Duration(sep / v * float64(time.Second)))
			x1 := 0 + (2*rng.Float64()-1)*maxXErr
			x2 := sep + (2*rng.Float64()-1)*maxXErr
			obs1 := core.Observation{Pos: geom.P(x1, 0), Time: c1.Now(t0)}
			obs2 := core.Observation{Pos: geom.P(x2, 0), Time: c2.Now(t1)}
			se, err := core.EstimateSpeed(obs1, obs2)
			if err != nil {
				continue // pathological clock draw; skip
			}
			est = append(est, core.MPH(se.Speed))
		}
		mean, _ := meanStd(est)
		res.MeanMPH = append(res.MeanMPH, mean)
		// 90th percentile of |error|.
		errs := make([]float64, len(est))
		for i, e := range est {
			errs[i] = math.Abs(e - mph)
		}
		sort.Float64s(errs)
		p90 := 0.0
		if len(errs) > 0 {
			p90 = errs[int(0.9*float64(len(errs)-1))]
		}
		res.P90MPH = append(res.P90MPH, p90)
		if rel := math.Abs(mean-mph) / mph; rel > res.MaxRelError {
			res.MaxRelError = rel
		}
		if len(errs) > 0 {
			if rel := p90 / mph; rel > res.MaxRelError {
				res.MaxRelError = rel
			}
		}
	}
	return res, nil
}

// Table renders detected vs actual speeds.
func (r *Fig15Result) Table() *Table {
	t := &Table{
		Title:   "Fig 15 — speed detection accuracy (two poles 200 ft apart, NTP sync)",
		Columns: []string{"actual (mph)", "detected mean (mph)", "p90 |err| (mph)"},
	}
	for i := range r.ActualMPH {
		t.Cells = append(t.Cells, []string{
			f1(r.ActualMPH[i]), f1(r.MeanMPH[i]), f1(r.P90MPH[i]),
		})
	}
	t.Notes = append(t.Notes,
		"paper: within 8% (1–4 mph) across the range",
		"measured worst relative error: "+pct(r.MaxRelError))
	return t
}
