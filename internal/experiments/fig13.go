package experiments

import (
	"fmt"
	"math"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/rfsim"
	"caraoke/internal/traffic"
	"caraoke/internal/transponder"
)

// Fig13Result reproduces Fig 13: AoA error for cars parked in spots 1–6
// along the street, measured against laser-ranged ground truth. The
// paper's average is ≈4°, largest at the extreme spots, and flattened
// by tilting the antenna plane 60° toward the road.
type Fig13Result struct {
	Spot    []int
	MeanDeg []float64
	StdDeg  []float64
	// NoTiltMeanDeg is the ablation with a horizontal (untilted) array.
	NoTiltMeanDeg []float64
}

// RunFig13 parks a target car in each spot (with 1–3 colliding parked
// cars elsewhere), runs the localization pipeline, and accumulates the
// AoA error per spot.
func RunFig13(seed int64, runsPerSpot int) (*Fig13Result, error) {
	s, err := newScene(seed)
	if err != nil {
		return nil, err
	}
	// A strip of 6 spots (6 m each) along the curb, pole at x = 0.
	strip, err := traffic.NewParkingStrip(geom.V(4, -1.5, 0), geom.V(1, 0, 0), 6, 6)
	if err != nil {
		return nil, err
	}
	noTilt, err := rfsim.TriangleOnPole(geom.V(0, -5, 0), 3.8, geom.V(1, 0, 0), 0, s.rd.Params.Wavelength/2)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{}
	serial := uint64(4000)
	for spot := 0; spot < strip.NumSpots; spot++ {
		var errs, errsNoTilt []float64
		for run := 0; run < runsPerSpot; run++ {
			target := transponder.NewRandomDevice(transponder.DefaultPopulationParams(), serial, strip.SpotCenter(spot), s.rng)
			serial++
			// Colliding parked cars in other random spots.
			devs := []*transponder.Device{target}
			for extras := 0; extras < 1+s.rng.Intn(3); extras++ {
				other := s.rng.Intn(strip.NumSpots)
				if other == spot {
					continue
				}
				d := transponder.NewRandomDevice(transponder.DefaultPopulationParams(), serial, strip.SpotCenter(other), s.rng)
				serial++
				devs = append(devs, d)
			}
			for _, arrCase := range []struct {
				arr  rfsim.Array
				dst  *[]float64
				tilt bool
			}{{s.rd.Array, &errs, true}, {noTilt, &errsNoTilt, false}} {
				errDeg, err := measureAoAError(s, arrCase.arr, devs, target)
				if err != nil {
					continue // peak lost under collision; skip the run
				}
				*arrCase.dst = append(*arrCase.dst, errDeg)
			}
		}
		m, sd := meanStd(errs)
		mn, _ := meanStd(errsNoTilt)
		res.Spot = append(res.Spot, spot+1)
		res.MeanDeg = append(res.MeanDeg, m)
		res.StdDeg = append(res.StdDeg, sd)
		res.NoTiltMeanDeg = append(res.NoTiltMeanDeg, mn)
	}
	return res, nil
}

// measureAoAError captures a collision on the given array and returns
// the target's AoA error in degrees versus exact geometry ("we ignore
// the FFT spikes corresponding to other cars and focus on localizing
// our transponders", §12.2).
func measureAoAError(s *scene, arr rfsim.Array, devs []*transponder.Device, target *transponder.Device) (float64, error) {
	txs := make([]rfsim.Transmission, 0, len(devs))
	for _, d := range devs {
		tx, err := d.Reply(s.rd.Params.ReaderLO, s.rd.Params.SampleRate, 0, s.rng)
		if err != nil {
			return 0, err
		}
		txs = append(txs, tx)
	}
	mc, err := rfsim.Capture(s.rd.Capture, arr, txs, s.rng)
	if err != nil {
		return 0, err
	}
	spikes, err := core.AnalyzeCapture(mc, s.rd.Params)
	if err != nil {
		return 0, err
	}
	sp, ok := spikeNear(spikes, target.CFO(s.rd.Params.ReaderLO))
	if !ok {
		return 0, fmt.Errorf("target spike not found")
	}
	aoa, err := core.EstimateAoA(sp, arr, s.rd.Params.Wavelength)
	if err != nil {
		return 0, err
	}
	truth := trueAngleTo(arr, aoa.Pair, target.Pos)
	return math.Abs(geom.Degrees(aoa.Alpha - truth)), nil
}

func trueAngleTo(arr rfsim.Array, pair rfsim.Pair, pos geom.Vec3) float64 {
	r := pos.Sub(arr.Midpoint(pair))
	cosA := r.Dot(arr.Axis(pair).Unit()) / r.Norm()
	return math.Acos(cosA)
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Table renders per-spot errors.
func (r *Fig13Result) Table() *Table {
	t := &Table{
		Title:   "Fig 13 — AoA error by parking spot (60°-tilted array vs untilted ablation)",
		Columns: []string{"spot", "mean err (°)", "std (°)", "untilted mean (°)"},
	}
	var overall float64
	for i, spot := range r.Spot {
		overall += r.MeanDeg[i]
		t.Cells = append(t.Cells, []string{
			fmt.Sprintf("%d", spot), f2(r.MeanDeg[i]), f2(r.StdDeg[i]), f2(r.NoTiltMeanDeg[i]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured average %.2f°; paper: ≈4° average, worst at the end spots", overall/float64(len(r.Spot))),
		"the 60° tilt balances errors across spots; untilted arrays degrade at the far spots")
	return t
}
