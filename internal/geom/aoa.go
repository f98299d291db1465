package geom

import (
	"fmt"
	"math"
)

// SpeedOfLight in vacuum, m/s.
const SpeedOfLight = 299792458.0

// Wavelength returns the carrier wavelength in meters for a frequency
// in Hz (≈ 0.3277 m at the 915 MHz e-toll carrier).
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// AoAFromPhase converts a measured inter-antenna phase difference into
// a spatial angle via Eq 10 of the paper: cos α = Δφ·λ/(2π·d), where d
// is the antenna spacing and λ the carrier wavelength. The returned
// angle is in radians within [0, π]. Values of cos α outside [−1, 1]
// (possible under noise when the true angle is near 0 or π) are clamped
// and reported via the clipped return.
func AoAFromPhase(deltaPhi, spacing, wavelength float64) (alpha float64, clipped bool) {
	if spacing <= 0 || wavelength <= 0 {
		panic(fmt.Sprintf("geom: non-positive spacing %g or wavelength %g", spacing, wavelength))
	}
	c := deltaPhi / (2 * math.Pi) * wavelength / spacing
	if c > 1 {
		c, clipped = 1, true
	} else if c < -1 {
		c, clipped = -1, true
	}
	return math.Acos(c), clipped
}

// WrapPhase reduces a phase to (−π, π].
func WrapPhase(phi float64) float64 {
	phi = math.Mod(phi, 2*math.Pi)
	if phi > math.Pi {
		phi -= 2 * math.Pi
	} else if phi <= -math.Pi {
		phi += 2 * math.Pi
	}
	return phi
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// BroadsideQuality scores how close an angle is to 90° (broadside),
// where AoA estimation is most accurate (§6: sensitivity of α to Δφ is
// minimal near 90° because Δφ ∝ cos α). Higher is better; the score is
// |sin α|, the derivative advantage.
func BroadsideQuality(alpha float64) float64 { return math.Abs(math.Sin(alpha)) }
