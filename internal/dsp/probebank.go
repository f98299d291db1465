package dsp

import (
	"math"
	"math/cmplx"

	"caraoke/internal/phy"
)

// ProbeBank evaluates every §5 gate quantity of one spectral peak — the
// dual-window occupancy test and the full-capture centre and shoulder —
// from one de-rotation of the capture instead of one Goertzel walk per
// probe. All of those probes sit at the peak's refined frequency plus a
// small fixed offset, so the bank tabulates the phasor e^{-2πi f t} of
// that frequency once (Tune), multiplies each capture by it once (Load:
// y[t] = x[t]·e^{-2πi f t}), and reads the probes off y:
//
//   - the DFT of x at f over any window is the plain sum of y over it
//     (times a unit-magnitude constant, the phasor at the window start);
//   - the DFT of x at f ± k/L over a window of L samples is DFT bin ±k of
//     that window of y. For integer k that is exact, not an
//     approximation: e^{-2πi (f ± k/L) j} = e^{-2πi f j}·e^{∓2πi k j/L}.
//
// The occupancy test's reference probes are offset by integer multiples
// of the window bin by construction (they sit on the nulls of a tone at
// f), and the shoulder probes by one capture bin, so both are DFT bins
// of y a handful of steps from zero. nearBins computes such bins after
// one multiplier-free radix-4 decimation-in-frequency fold, which cuts
// each to a dot product a quarter of the window long.
//
// Only rounding separates the bank from the Goertzel walks it replaces
// (both sum the same products, in a different order and with the phasor
// tabulated rather than recurred); the tests hold every probe to
// 1e-9·Σ|x| of Goertzel at the same frequency.
//
// A ProbeBank is NOT safe for concurrent use; the zero value is ready.
// Buffers grow on first use and are retained, so a warmed bank
// allocates nothing.
type ProbeBank struct {
	freqHz float64
	ph     []complex128 // e^{-2πi f t}, f = freqHz/phy.SampleRate
	y      []complex128 // the loaded capture, de-rotated
	fold   []complex128 // nearBins: the four folded classes
	refs   []float64    // Occupancy: reference-probe magnitudes

	// pos[k] and neg[k] are DFT bins +k and −k of nearBins's last input.
	pos, neg [maxProbeBin + 1]complex128
}

// maxProbeBin is the farthest DFT bin nearBins reaches: the occupancy
// test's reference probes sit 2…5 window bins from the peak.
const maxProbeBin = 5

// phasorBlock is the stride of Tune's two-level phasor table.
const phasorBlock = 64

// Tune points the bank at the tone freqHz in captures sampled at
// phy.SampleRate. The table is two short recurrences deep — offsets
// within a block, block starts — and one product of the two per entry,
// so an entry is at most phasorBlock + N/phasorBlock roundings from
// exact (under a hundred at 2048 samples) where a single recurrence
// along the capture would be N.
func (b *ProbeBank) Tune(freqHz float64) {
	b.freqHz = freqHz
	const n = captureSamples
	b.ph = growComplexSlice(b.ph, n)
	b.y = b.y[:0]
	w := -2 * math.Pi * (freqHz / phy.SampleRate)
	s, c := math.Sincos(w)
	step := complex(c, s)
	s, c = math.Sincos(w * phasorBlock)
	blockStep := complex(c, s)
	var fine [phasorBlock]complex128
	fine[0] = 1
	for j := 1; j < phasorBlock; j++ {
		fine[j] = fine[j-1] * step
	}
	base := complex(1, 0)
	for t0 := 0; t0 < n; t0 += phasorBlock {
		blk := b.ph[t0:min(t0+phasorBlock, n)]
		for j := range blk {
			blk[j] = base * fine[j]
		}
		base *= blockStep
	}
}

// Load de-rotates one capture by the tuned frequency. Occupancy and
// Shoulder read the result. Load panics unless len(x) is
// phy.ResponseSamples.
func (b *ProbeBank) Load(x []complex128) {
	mustBeCapture(x, "ProbeBank.Load")
	b.y = growComplexSlice(b.y, captureSamples)
	y, ph := b.y, b.ph
	for t, v := range x {
		y[t] = v * ph[t]
	}
}

// Occupancy applies the time-shift test of §5 to the loaded capture at
// the tuned frequency. The DFT at that frequency is measured over a
// base window starting at sample 0 and over two shifted windows. The
// Fourier phase-rotation property means a single tone keeps its
// magnitude (‖R(f)‖ = ‖R(f)·e^{2πifτ}‖) and rotates quadratically
// (ρ₂ = ρ₁² when the second shift is double the first), while two tones
// sharing the bin rotate by different phases, beating in magnitude and
// breaking the quadratic phase relation.
//
// During a collision the windows also contain the *other* transponders'
// OOK data, whose short-window level is structured and capture-specific
// — no analytic model fits it. The test therefore self-calibrates: it
// measures the same windows at reference frequencies offset by integer
// multiples of the window bin width (where a tone at freqHz has exactly
// zero Dirichlet leakage), takes the median as the interference floor
// W, and requires magnitude changes to exceed occKMag·W and consistency
// residuals to exceed occKCons·W/m₀ before declaring the bin
// multi-occupied.
//
// On the de-rotated capture the three window measurements are plain
// sums Sᵢ, and because the de-rotation is global — one phasor running
// across the whole capture, not restarted per window — the rotation the
// probe frequency itself accrues between window starts is already
// removed: ρᵢ = Sᵢ/S₀ carries only the residual (true minus probe)
// rotation. The reference probes are DFT bins ±2…±5 of each window.
func (b *ProbeBank) Occupancy() Occupancy {
	// Every window is a whole quarter of the capture and starts inside it.
	const winLen = occWindowSamples
	starts := [3]int{0}
	for i, frac := range occShifts {
		starts[i+1] = int(captureSamples * frac)
	}

	// A reference frequency outside (0, 1) cycles per sample is dropped
	// rather than aliased; decide on the frequency itself, as a direct
	// evaluation would.
	winBin := phy.SampleRate / float64(winLen)
	var usePos, useNeg [maxProbeBin + 1]bool
	for k := 2; k <= maxProbeBin; k++ {
		usePos[k] = validProbeFreq((b.freqHz + float64(k)*winBin) / phy.SampleRate)
		useNeg[k] = validProbeFreq((b.freqHz - float64(k)*winBin) / phy.SampleRate)
	}

	y := b.loaded()
	var r [3]complex128
	var m [3]float64
	refs := b.refs[:0]
	for i, start := range starts {
		r[i] = b.nearBins(y[start:start+winLen], windowTwiddles, 2, maxProbeBin)
		m[i] = cmplx.Abs(r[i])
		for k := 2; k <= maxProbeBin; k++ {
			if useNeg[k] {
				refs = append(refs, cmplx.Abs(b.neg[k]))
			}
			if usePos[k] {
				refs = append(refs, cmplx.Abs(b.pos[k]))
			}
		}
	}
	b.refs = refs
	if m[0] == 0 {
		return OccupancySingle
	}
	w := medianFloat(refs)

	magGate := occRelTolerance * m[0]
	if g := occKMag * w; g > magGate {
		magGate = g
	}
	for i := 1; i < 3; i++ {
		if math.Abs(m[i]-m[0]) > magGate {
			return OccupancyMultiple
		}
	}

	consGate := occConsistencyTol
	if g := occKCons * w / m[0]; g > consGate {
		consGate = g
	}
	rho1, rho2 := r[1]/r[0], r[2]/r[0]
	if cmplx.Abs(rho2-rho1*rho1) > consGate {
		return OccupancyMultiple
	}
	return OccupancySingle
}

// loaded returns the de-rotated capture. It panics when the bank has
// been tuned since its last Load, rather than read the previous capture.
func (b *ProbeBank) loaded() []complex128 {
	if len(b.y) != captureSamples {
		panic("dsp: ProbeBank read before Load")
	}
	return b.y
}

func validProbeFreq(f float64) bool { return f > 0 && f < 1 }

// Shoulder returns the magnitude of the loaded capture's DFT at the
// tuned frequency (centre) and the larger of the magnitudes one capture
// bin to either side (side). The DFT of a lone carrier has an exact
// null there; a second tone merged into the same peak fills it.
func (b *ProbeBank) Shoulder() (centre, side float64) {
	centre = cmplx.Abs(b.nearBins(b.loaded(), captureTwiddles, 1, 1))
	return centre, max(cmplx.Abs(b.neg[1]), cmplx.Abs(b.pos[1]))
}

// nearBins returns Σ z — DFT bin 0 — and leaves DFT bins ±kLo…±kHi of z
// in b.pos and b.neg. tw is the twiddle table of z's length.
//
// With L = len(z) = 4M, splitting the index as j + rM gives
//
//	X[k] = Σ_{j<M} e^{-2πi k j/L} · Σ_{r<4} z[j+rM]·(−i)^{kr},
//
// and the inner sum depends on k only through k mod 4: four folded
// classes, built with additions alone, serve every bin, each bin then
// costing an M-term dot product against a fixed twiddle row. Bins +k
// and −k share a row (one conjugated), so one pass yields both.
func (b *ProbeBank) nearBins(z []complex128, tw *probeTwiddles, kLo, kHi int) complex128 {
	m := tw.m
	b.fold = growComplexSlice(b.fold, len(z))
	classes := b.fold
	fold4(classes, z)
	var sum complex128
	for _, v := range classes[:m] { // class 0: Σ_r z[j+rM]
		sum += v
	}
	for k := kLo; k <= kHi; k++ {
		cp, cn := (k&3)*m, (-k&3)*m
		b.pos[k], b.neg[k] = dotPair(classes[cp:cp+m], classes[cn:cn+m], tw.row(k))
	}
	return sum
}

// fold4 writes the four radix-4 decimation-in-frequency classes of z
// (length 4M) to dst: dst[cM+j] = Σ_{r<4} z[j+rM]·(−i)^{cr}.
func fold4(dst, z []complex128) {
	m := len(z) / 4
	z0, z1, z2, z3 := z[:m], z[m:2*m], z[2*m:3*m], z[3*m:4*m]
	g0, g1, g2, g3 := dst[:m], dst[m:2*m], dst[2*m:3*m], dst[3*m:4*m]
	for j := range z0 {
		s02, d02 := z0[j]+z2[j], z0[j]-z2[j]
		s13, d13 := z1[j]+z3[j], z1[j]-z3[j]
		rot := complex(imag(d13), -real(d13)) // −i·d13
		g0[j] = s02 + s13
		g1[j] = d02 + rot
		g2[j] = s02 - s13
		g3[j] = d02 - rot
	}
}

// dotPair returns Σ a[j]·t[j] and Σ b[j]·conj(t[j]).
func dotPair(a, b, t []complex128) (complex128, complex128) {
	b, t = b[:len(a)], t[:len(a)]
	var pr, pi, nr, ni float64
	for j, av := range a {
		c, s := real(t[j]), imag(t[j])
		ar, ai := real(av), imag(av)
		br, bi := real(b[j]), imag(b[j])
		pr += ar*c - ai*s
		pi += ar*s + ai*c
		nr += br*c + bi*s
		ni += bi*c - br*s
	}
	return complex(pr, pi), complex(nr, ni)
}

// windowTwiddles and captureTwiddles are nearBins's two tables, built
// when the package initializes and only read after: one for the
// occupancy windows, one for the whole capture (Shoulder).
var (
	windowTwiddles  = newProbeTwiddles(occWindowSamples)
	captureTwiddles = newProbeTwiddles(captureSamples)
)

// probeTwiddles holds the rows e^{-2πi k j/L}, j < m = L/4, for k = 1…
// maxProbeBin of one DFT length L: what nearBins's folded dot products
// run against.
type probeTwiddles struct {
	m int
	w []complex128 // row k at w[(k-1)·m : k·m]
}

func (tw *probeTwiddles) row(k int) []complex128 { return tw.w[(k-1)*tw.m : k*tw.m] }

func newProbeTwiddles(l int) *probeTwiddles {
	m := l / 4
	tw := &probeTwiddles{m: m, w: make([]complex128, maxProbeBin*m)}
	for k := 1; k <= maxProbeBin; k++ {
		row := tw.row(k)
		for j := range row {
			// Reduce k·j mod L in integers so every entry is one exact
			// angle in [0, 2π).
			s, c := math.Sincos(-2 * math.Pi * float64(k*j%l) / float64(l))
			row[j] = complex(c, s)
		}
	}
	return tw
}
