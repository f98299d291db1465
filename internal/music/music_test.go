package music

import (
	"math"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/rfsim"
)

func TestCircularAperture(t *testing.T) {
	c := geom.V(0, 0, 4)
	pts := CircularAperture(c, 0.7, 36)
	if len(pts) != 36 {
		t.Fatalf("%d positions", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Dist(c)-0.7) > 1e-12 {
			t.Fatalf("position %v not on the circle", p)
		}
	}
}

func TestMUSICFindsLoSDirection(t *testing.T) {
	lambda := geom.Wavelength(915e6)
	center := geom.V(0, 0, 4)
	aperture := CircularAperture(center, 0.7, 72)
	wantDeg := 30.0
	tx := center.Add(geom.V(40*math.Cos(geom.Radians(wantDeg)), 40*math.Sin(geom.Radians(wantDeg)), -4))
	h := MeasureChannels(tx, aperture, lambda, nil)
	prof, err := MUSIC(h, aperture, center, lambda, -100, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range prof.Power {
		if prof.Power[i] > prof.Power[best] {
			best = i
		}
	}
	if got := prof.AnglesDeg[best]; math.Abs(got-wantDeg) > 3 {
		t.Errorf("profile peak at %.1f°, want %.1f°", got, wantDeg)
	}
}

func TestMUSICDominantLoSPeakRatio(t *testing.T) {
	// Fig 14's claim: outdoors the strongest path dominates; with one
	// weak reflector (|coeff| 0.2) the profile still shows a single
	// dominant peak with an order-of-magnitude power margin.
	lambda := geom.Wavelength(915e6)
	center := geom.V(0, 0, 4)
	aperture := CircularAperture(center, 0.7, 72)
	tx := geom.V(30, 10, 0)
	refl := []rfsim.Reflector{{Point: geom.V(10, -15, 1), Coeff: complex(0.2, 0)}}
	h := MeasureChannels(tx, aperture, lambda, refl)
	prof, err := MUSIC(h, aperture, center, lambda, -100, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := PeakRatio(prof, 10)
	if ratio < 5 {
		t.Errorf("LoS-to-second-peak ratio %.1f, want ≫1 (paper: ≈27)", ratio)
	}
}

func TestMUSICErrors(t *testing.T) {
	lambda := geom.Wavelength(915e6)
	aperture := CircularAperture(geom.V(0, 0, 4), 0.7, 8)
	if _, err := MUSIC(make([]complex128, 4), aperture, geom.V(0, 0, 4), lambda, -90, 90, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MUSIC(make([]complex128, 8), aperture, geom.V(0, 0, 4), lambda, 90, -90, 1); err == nil {
		t.Error("inverted grid accepted")
	}
	if _, err := MUSIC(make([]complex128, 8), aperture, geom.V(0, 0, 4), lambda, -90, 90, 1); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := MUSIC(nil, nil, geom.Vec3{}, lambda, -90, 90, 1); err == nil {
		t.Error("no data accepted")
	}
}

func TestPeakRatioSinglePeak(t *testing.T) {
	p := &Profile{AnglesDeg: []float64{0, 1, 2, 3, 4}, Power: []float64{0, 0.3, 1, 0.3, 0}}
	if r := PeakRatio(p, 1); !math.IsInf(r, 1) {
		t.Errorf("single-peak ratio = %g, want +Inf", r)
	}
	two := &Profile{
		AnglesDeg: []float64{0, 1, 2, 3, 4, 5, 6},
		Power:     []float64{0, 1, 0, 0, 0.25, 0, 0},
	}
	if r := PeakRatio(two, 1); math.Abs(r-4) > 1e-9 {
		t.Errorf("two-peak ratio = %g, want 4", r)
	}
}
