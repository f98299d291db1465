package rfsim

import (
	"math"
	"math/cmplx"
	"testing"

	"caraoke/internal/geom"
)

func TestFreeSpaceAmplitudeDecay(t *testing.T) {
	lambda := geom.Wavelength(915e6)
	a1 := FreeSpaceAmplitude(10, lambda)
	a2 := FreeSpaceAmplitude(20, lambda)
	if math.Abs(a1/a2-2) > 1e-12 {
		t.Errorf("amplitude ratio %g, want 2 (1/d law)", a1/a2)
	}
	// Friis check at 10 m, 915 MHz: path loss ≈ 51.7 dB.
	lossDB := -20 * math.Log10(a1)
	if math.Abs(lossDB-51.66) > 0.1 {
		t.Errorf("path loss at 10 m = %.2f dB, want ≈51.66", lossDB)
	}
}

func TestFreeSpaceAmplitudePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero distance")
		}
	}()
	FreeSpaceAmplitude(0, 0.3)
}

func TestChannelPhaseMatchesPathLength(t *testing.T) {
	lambda := geom.Wavelength(915e6)
	tx := geom.V(0, 0, 0)
	rx := geom.V(7.3, 2.1, 4.0)
	h := Channel(tx, rx, lambda, nil)
	d := tx.Dist(rx)
	wantPhase := geom.WrapPhase(-2 * math.Pi * d / lambda)
	if math.Abs(geom.WrapPhase(cmplx.Phase(h)-wantPhase)) > 1e-9 {
		t.Errorf("channel phase %g, want %g", cmplx.Phase(h), wantPhase)
	}
	if math.Abs(cmplx.Abs(h)-FreeSpaceAmplitude(d, lambda)) > 1e-15 {
		t.Errorf("channel magnitude %g, want free-space %g", cmplx.Abs(h), FreeSpaceAmplitude(d, lambda))
	}
}

func TestChannelInterAntennaPhaseGivesAoA(t *testing.T) {
	// Far-field: the phase difference across a λ/2-spaced pair must
	// match Eq 10 for the true spatial angle.
	lambda := geom.Wavelength(915e6)
	spacing := lambda / 2
	center := geom.V(0, 0, 4)
	axis := geom.V(1, 0, 0)
	arr := NewPairArray(center, axis, spacing)
	for _, deg := range []float64{30, 60, 75, 90, 110, 140} {
		alpha := geom.Radians(deg)
		dist := 30.0
		// Place the transponder at spatial angle alpha from the
		// baseline axis, in the x-y plane through the array center.
		tx := center.Add(geom.V(math.Cos(alpha)*dist, math.Sin(alpha)*dist, 0))
		h1 := Channel(tx, arr.Elements[0], lambda, nil)
		h2 := Channel(tx, arr.Elements[1], lambda, nil)
		dphi := geom.WrapPhase(cmplx.Phase(h2 / h1))
		got, _ := geom.AoAFromPhase(dphi, spacing, lambda)
		if math.Abs(geom.Degrees(got)-deg) > 1.0 {
			t.Errorf("angle %g°: recovered %.2f°", deg, geom.Degrees(got))
		}
	}
}

func TestChannelMultipathSuperposition(t *testing.T) {
	lambda := geom.Wavelength(915e6)
	tx := geom.V(0, 0, 1)
	rx := geom.V(20, 0, 4)
	refl := Reflector{Point: geom.V(10, 5, 1), Coeff: complex(0.4, 0)}
	hLoS := Channel(tx, rx, lambda, nil)
	hBoth := Channel(tx, rx, lambda, []Reflector{refl})
	dRefl := tx.Dist(refl.Point) + refl.Point.Dist(rx)
	wantExtra := refl.Coeff * complex(FreeSpaceAmplitude(dRefl, lambda), 0) *
		cmplx.Exp(complex(0, -2*math.Pi*dRefl/lambda))
	if cmplx.Abs(hBoth-hLoS-wantExtra) > 1e-15 {
		t.Error("multipath channel is not the superposition of path gains")
	}
}
