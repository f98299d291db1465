// Package rfsim synthesizes the complex-baseband captures a Caraoke
// reader would digitize: transponder OOK envelopes carried on
// device-specific carrier offsets, propagated over free-space (plus
// optional specular multipath) to each antenna of the reader's array,
// with additive white Gaussian noise.
//
// It substitutes for the paper's over-the-air campus deployment. The
// Caraoke algorithms consume only per-antenna baseband samples; this
// package produces them from first-principles physics (free-space path
// loss, geometric phase, oscillator offset and phase), which is exactly
// the information content the real RF front end delivers.
package rfsim

import (
	"math"
	"math/cmplx"

	"caraoke/internal/geom"
)

// FreeSpaceAmplitude returns the amplitude gain of a line-of-sight path
// of the given length: λ/(4πd), the square root of the Friis free-space
// power gain for unit antenna gains.
func FreeSpaceAmplitude(dist, wavelength float64) float64 {
	if dist <= 0 {
		panic("rfsim: non-positive path length")
	}
	return wavelength / (4 * math.Pi * dist)
}

// Reflector is a single-bounce specular scatterer. A path transmitter →
// Point → receiver is added with the given complex reflection
// coefficient (|Coeff| ≤ 1 for passive surfaces). Outdoor pole-mounted
// readers see little of this (§12.2, Fig 14); indoor-like scenes can
// inject several to stress the localizer.
type Reflector struct {
	Point geom.Vec3
	Coeff complex128
}

// Channel computes the complex baseband channel coefficient from a
// transmitter position to one antenna position: the phase-coherent sum
// of the line-of-sight path and one bounce off each reflector, at the
// given carrier wavelength.
func Channel(tx, rx geom.Vec3, wavelength float64, reflectors []Reflector) complex128 {
	h := pathGain(tx.Dist(rx), wavelength)
	for _, r := range reflectors {
		d := tx.Dist(r.Point) + r.Point.Dist(rx)
		h += r.Coeff * pathGain(d, wavelength)
	}
	return h
}

// pathGain is the complex gain of a single path of length d: free-space
// amplitude with propagation phase e^{−j2πd/λ}.
func pathGain(d, wavelength float64) complex128 {
	a := FreeSpaceAmplitude(d, wavelength)
	phase := -2 * math.Pi * d / wavelength
	return complex(a, 0) * cmplx.Exp(complex(0, phase))
}
