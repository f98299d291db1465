// Package music implements the synthetic-aperture multipath profiling
// of §12.2 (Fig 14): an antenna on a rotating arm measures the
// transponder's channel at many positions on a circle, emulating a
// large array (like the paper's reference [37]); phased-array
// processing of those channels yields the power arriving from each
// direction. Outdoors, pole-mounted readers see one dominant
// line-of-sight peak — the paper measures the strongest path at ≈27×
// the power of the second strongest — which is why a two-antenna pair
// suffices for AoA.
package music

import (
	"fmt"
	"math"
	"math/cmplx"

	"caraoke/internal/geom"
	"caraoke/internal/rfsim"
)

// CircularAperture returns n antenna positions uniformly spaced on a
// horizontal circle of the given radius around center — the rotating
// arm of §12.2 (radius 70 cm in the paper).
func CircularAperture(center geom.Vec3, radius float64, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		ang := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = center.Add(geom.V(radius*math.Cos(ang), radius*math.Sin(ang), 0))
	}
	return pts
}

// MeasureChannels samples the channel from tx to every aperture
// position (the paper measures these from the transponder's CFO spike
// while the arm rotates).
func MeasureChannels(tx geom.Vec3, aperture []geom.Vec3, wavelength float64, reflectors []rfsim.Reflector) []complex128 {
	h := make([]complex128, len(aperture))
	for i, p := range aperture {
		h[i] = rfsim.Channel(tx, p, wavelength, reflectors)
	}
	return h
}

// Profile is a power-versus-angle multipath profile.
type Profile struct {
	AnglesDeg []float64
	Power     []float64 // normalized to max = 1
}

// steering returns the phase-only array response for a plane wave
// arriving from azimuth theta (radians, road plane) at the given
// positions.
func steering(positions []geom.Vec3, center geom.Vec3, wavelength, theta float64) []complex128 {
	u := geom.V(math.Cos(theta), math.Sin(theta), 0)
	a := make([]complex128, len(positions))
	for i, p := range positions {
		// Plane wave from direction u: phase advance along −u.
		phase := 2 * math.Pi / wavelength * p.Sub(center).Dot(u)
		a[i] = cmplx.Exp(complex(0, phase))
	}
	return a
}

// MUSIC computes the single-snapshot MUSIC pseudospectrum
// 1/(a(θ)ᴴ·(I − hhᴴ/‖h‖²)·a(θ)): the measured channel vector spans the
// signal subspace and the pseudospectrum diverges where the steering
// vector falls into it. With one dominant path (the outdoor LoS case)
// this sharpens the beamformer's main peak while preserving the
// relative power of secondary arrivals.
func MUSIC(h []complex128, positions []geom.Vec3, center geom.Vec3, wavelength float64, minDeg, maxDeg, stepDeg float64) (*Profile, error) {
	if len(h) != len(positions) || len(h) == 0 {
		return nil, fmt.Errorf("music: %d channels for %d positions", len(h), len(positions))
	}
	if stepDeg <= 0 || maxDeg <= minDeg {
		return nil, fmt.Errorf("music: bad angle grid")
	}
	var norm2 float64
	for _, v := range h {
		norm2 += real(v)*real(v) + imag(v)*imag(v)
	}
	if norm2 == 0 {
		return nil, fmt.Errorf("music: zero channel vector")
	}
	var prof Profile
	maxP := 0.0
	for deg := minDeg; deg <= maxDeg; deg += stepDeg {
		a := steering(positions, center, wavelength, geom.Radians(deg))
		var ah complex128 // hᴴa
		var aa float64    // aᴴa
		for i := range a {
			ah += cmplx.Conj(h[i]) * a[i]
			aa += 1 // |a_i| = 1
		}
		// aᴴ(I − hhᴴ/‖h‖²)a = ‖a‖² − |hᴴa|²/‖h‖².
		denom := aa - (real(ah)*real(ah)+imag(ah)*imag(ah))/norm2
		if denom < 1e-12 {
			denom = 1e-12
		}
		p := 1 / denom
		prof.AnglesDeg = append(prof.AnglesDeg, deg)
		prof.Power = append(prof.Power, p)
		if p > maxP {
			maxP = p
		}
	}
	for i := range prof.Power {
		prof.Power[i] /= maxP
	}
	return &prof, nil
}

// PeakRatio returns the power ratio between the strongest and the
// second-strongest local maxima of a profile, requiring peaks to be at
// least sepDeg apart. The paper reports ≈27× outdoors (Fig 14
// discussion). If no second peak exists the ratio is +Inf.
func PeakRatio(p *Profile, sepDeg float64) float64 {
	type peak struct {
		idx int
		pw  float64
	}
	var peaks []peak
	for i := 1; i < len(p.Power)-1; i++ {
		if p.Power[i] >= p.Power[i-1] && p.Power[i] > p.Power[i+1] {
			peaks = append(peaks, peak{i, p.Power[i]})
		}
	}
	if len(peaks) == 0 {
		return math.Inf(1)
	}
	// Strongest peak.
	best := peaks[0]
	for _, pk := range peaks[1:] {
		if pk.pw > best.pw {
			best = pk
		}
	}
	// Second strongest sufficiently far away.
	second := 0.0
	if len(p.AnglesDeg) > 1 {
		step := p.AnglesDeg[1] - p.AnglesDeg[0]
		for _, pk := range peaks {
			if math.Abs(float64(pk.idx-best.idx))*step < sepDeg {
				continue
			}
			if pk.pw > second {
				second = pk.pw
			}
		}
	}
	if second == 0 {
		return math.Inf(1)
	}
	return best.pw / second
}
