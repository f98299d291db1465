package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// phaseFromAoA is the forward model AoAFromPhase inverts: the phase
// difference a plane wave arriving at spatial angle alpha produces
// across two antennas spaced `spacing` apart.
func phaseFromAoA(alpha, spacing, wavelength float64) float64 {
	return 2 * math.Pi * spacing / wavelength * math.Cos(alpha)
}

func TestAoAPhaseRoundTripProperty(t *testing.T) {
	lambda := Wavelength(915e6)
	spacing := lambda / 2
	fn := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		alpha := math.Mod(math.Abs(raw), math.Pi)
		if alpha < 0.01 || alpha > math.Pi-0.01 {
			return true // grazing angles amplify rounding; skip
		}
		phi := phaseFromAoA(alpha, spacing, lambda)
		got, clipped := AoAFromPhase(phi, spacing, lambda)
		return !clipped && almostEq(got, alpha, 1e-9)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAoAKnownAngles(t *testing.T) {
	lambda := Wavelength(915e6)
	d := lambda / 2
	cases := []struct {
		phi   float64
		alpha float64
	}{
		{0, math.Pi / 2},           // broadside: no phase difference
		{math.Pi, 0},               // endfire toward antenna 2
		{-math.Pi, math.Pi},        // endfire away
		{math.Pi / 2, math.Pi / 3}, // cos α = 1/2
	}
	for _, c := range cases {
		got, _ := AoAFromPhase(c.phi, d, lambda)
		if !almostEq(got, c.alpha, 1e-9) {
			t.Errorf("AoAFromPhase(%g) = %g rad, want %g", c.phi, got, c.alpha)
		}
	}
}

func TestAoAClipping(t *testing.T) {
	lambda := Wavelength(915e6)
	d := lambda / 2
	if _, clipped := AoAFromPhase(1.2*math.Pi, d, lambda); !clipped {
		t.Error("over-range phase not reported as clipped")
	}
	if _, clipped := AoAFromPhase(-1.2*math.Pi, d, lambda); !clipped {
		t.Error("under-range phase not reported as clipped")
	}
}

func TestAoAPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AoAFromPhase(0, 0, 0.3)
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-0.5, -0.5},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("WrapPhase(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestBroadsideQuality(t *testing.T) {
	if q90 := BroadsideQuality(math.Pi / 2); !almostEq(q90, 1, 1e-12) {
		t.Errorf("quality at 90° = %g, want 1", q90)
	}
	if q0 := BroadsideQuality(0); !almostEq(q0, 0, 1e-12) {
		t.Errorf("quality at 0° = %g, want 0", q0)
	}
	if BroadsideQuality(Radians(60)) <= BroadsideQuality(Radians(30)) {
		t.Error("quality should increase toward broadside")
	}
}

func TestWavelength(t *testing.T) {
	if got := Wavelength(915e6); !almostEq(got, 0.3276, 1e-3) {
		t.Errorf("Wavelength(915 MHz) = %g m, want ≈0.3277", got)
	}
}

func TestDegreesRadians(t *testing.T) {
	if got := Degrees(math.Pi); !almostEq(got, 180, 1e-12) {
		t.Errorf("Degrees(π) = %g", got)
	}
	if got := Radians(90); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("Radians(90) = %g", got)
	}
}
