package experiments

import (
	"fmt"
	"math"

	"caraoke/internal/geom"
	"caraoke/internal/music"
	"caraoke/internal/rfsim"
)

// Fig14Result reproduces Fig 14: the multipath profile seen by a
// pole-mounted reader, measured with a rotating-arm synthetic aperture
// and MUSIC. Outdoors the line-of-sight path dominates; the paper
// reports the strongest peak at ≈27× (14 dB) the power of the second
// strongest, averaged over 100 runs.
type Fig14Result struct {
	// Profile of a representative run.
	AnglesDeg []float64
	Power     []float64
	// MeanRatio is the average strongest/second-strongest power ratio
	// across runs.
	MeanRatio   float64
	MedianRatio float64
	Runs        int
}

// RunFig14 sweeps random outdoor geometries: a strong LoS path plus a
// few weak ground/obstacle reflections (|coeff| ≤ 0.25, as pole-height
// outdoor scenes exhibit).
func RunFig14(seed int64, runs int) (*Fig14Result, error) {
	s, err := newScene(seed)
	if err != nil {
		return nil, err
	}
	lambda := s.rd.Params.Wavelength
	center := geom.V(0, 0, 4)
	aperture := music.CircularAperture(center, 0.7, 72)
	res := &Fig14Result{Runs: runs}
	var ratios []float64
	for run := 0; run < runs; run++ {
		ang := geom.Radians(-80 + 160*s.rng.Float64())
		dist := 15 + 25*s.rng.Float64()
		tx := center.Add(geom.V(dist*math.Cos(ang), dist*math.Sin(ang), -4))
		var refl []rfsim.Reflector
		for i := 0; i < 1+s.rng.Intn(3); i++ {
			refl = append(refl, rfsim.Reflector{
				Point: geom.V(-30+60*s.rng.Float64(), -30+60*s.rng.Float64(), 0.5+s.rng.Float64()),
				Coeff: complex(0.05+0.2*s.rng.Float64(), 0),
			})
		}
		h := music.MeasureChannels(tx, aperture, lambda, refl)
		prof, err := music.MUSIC(h, aperture, center, lambda, -100, 100, 0.5)
		if err != nil {
			return nil, err
		}
		ratio := music.PeakRatio(prof, 10)
		if !math.IsInf(ratio, 1) {
			ratios = append(ratios, ratio)
		}
		if run == 0 {
			res.AnglesDeg = prof.AnglesDeg
			res.Power = prof.Power
		}
	}
	if len(ratios) > 0 {
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		res.MeanRatio = sum / float64(len(ratios))
		// Median.
		for i := 1; i < len(ratios); i++ {
			for j := i; j > 0 && ratios[j] < ratios[j-1]; j-- {
				ratios[j], ratios[j-1] = ratios[j-1], ratios[j]
			}
		}
		res.MedianRatio = ratios[len(ratios)/2]
	} else {
		res.MeanRatio = math.Inf(1)
		res.MedianRatio = math.Inf(1)
	}
	return res, nil
}

// Table renders the ratio statistics.
func (r *Fig14Result) Table() *Table {
	t := &Table{
		Title:   "Fig 14 — outdoor multipath profile (synthetic aperture + MUSIC)",
		Columns: []string{"metric", "measured", "paper"},
	}
	t.Cells = append(t.Cells,
		[]string{"strongest/second peak power (mean)", f1(r.MeanRatio), "≈27×"},
		[]string{"strongest/second peak power (median)", f1(r.MedianRatio), "—"},
		[]string{"runs", fmt.Sprintf("%d", r.Runs), "100"},
	)
	t.Notes = append(t.Notes, "one dominant LoS peak; multipath significantly weaker outdoors (§12.2)")
	return t
}
