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
// of y a handful of steps from zero. Such bins are read after one
// multiplier-free radix-4 decimation-in-frequency fold, which cuts each
// to a dot product a quarter of the window long: nearBins folds an
// occupancy window, and Load folds the whole capture for the shoulder
// in the pass that de-rotates it.
//
// Nothing is computed that no verdict reads. Load keeps only the three
// fold classes the shoulder uses, and Occupancy measures its reference
// probes only when the fixed tolerances alone do not already pass the
// bin as single.
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
	whole  []complex128 // Load: fold classes 0, 1 and 3 of y (Shoulder)
	fold   []complex128 // nearBins: the four folded classes
	refs   []float64    // referenceProbes: reference-probe magnitudes

	// pos[k] and neg[k] are DFT bins +k and −k of nearBins's last input.
	pos, neg [maxProbeBin + 1]complex128
}

// maxProbeBin is the farthest DFT bin nearBins reaches: the occupancy
// test's reference probes sit 2…5 window bins from the peak.
const maxProbeBin = 5

// phasorBlock is the stride of fillPhasors's two-level table.
const phasorBlock = 64

// Tune points the bank at the tone freqHz in captures sampled at
// phy.SampleRate.
func (b *ProbeBank) Tune(freqHz float64) {
	b.freqHz = freqHz
	b.ph = growComplexSlice(b.ph, captureSamples)
	b.y = b.y[:0]
	fillPhasors(b.ph, -2*math.Pi*(freqHz/phy.SampleRate))
}

// fillPhasors writes e^{i·angle·k} into dst[k]. The table is two short
// recurrences deep — offsets within a block of phasorBlock entries,
// block starts — and one product of the two per entry, so an entry is
// at most phasorBlock + len(dst)/phasorBlock roundings from exact
// (under a hundred at 2048 entries) where a single recurrence along dst
// would be len(dst).
func fillPhasors(dst []complex128, angle float64) {
	s, c := math.Sincos(angle)
	step := complex(c, s)
	s, c = math.Sincos(angle * phasorBlock)
	blockStep := complex(c, s)
	var fine [phasorBlock]complex128
	fine[0] = 1
	for j := 1; j < phasorBlock; j++ {
		fine[j] = fine[j-1] * step
	}
	base := complex(1, 0)
	for t0 := 0; t0 < len(dst); t0 += phasorBlock {
		blk := dst[t0:min(t0+phasorBlock, len(dst))]
		for j := range blk {
			blk[j] = base * fine[j]
		}
		base *= blockStep
	}
}

// Load de-rotates one capture by the tuned frequency and, in the same
// pass, folds it as fold4 would (see nearBins) into the three classes
// Shoulder reads: class 0, whose sum is the centre, and classes 1 and
// 3, whose dot products are the bins one capture bin to either side.
// Occupancy and Shoulder read the result. Load panics unless len(x) is
// phy.ResponseSamples.
func (b *ProbeBank) Load(x []complex128) {
	mustBeCapture(x, "ProbeBank.Load")
	const m = captureSamples / 4
	b.y = growComplexSlice(b.y, captureSamples)
	b.whole = growComplexSlice(b.whole, 3*m)
	y, ph := b.y, b.ph
	g0, g1, g3 := b.whole[:m], b.whole[m:2*m], b.whole[2*m:3*m]
	for j := range m {
		y0 := x[j] * ph[j]
		y1 := x[j+m] * ph[j+m]
		y2 := x[j+2*m] * ph[j+2*m]
		y3 := x[j+3*m] * ph[j+3*m]
		y[j], y[j+m], y[j+2*m], y[j+3*m] = y0, y1, y2, y3
		s02, d02 := y0+y2, y0-y2
		s13, d13 := y1+y3, y1-y3
		rot := complex(imag(d13), -real(d13)) // −i·d13
		g0[j] = s02 + s13
		g1[j] = d02 + rot
		g3[j] = d02 - rot
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
//
// Each gate is the wider of its fixed tolerance and its calibrated one,
// so a bin whose changes stay within the fixed tolerances passes
// whatever the floor: the test measures W (referenceProbes) only when
// they do not, and then decides exactly as if it always had.
func (b *ProbeBank) Occupancy() Occupancy {
	y := b.loaded()
	var r [3]complex128
	var m [3]float64
	for i, start := range occStarts {
		r[i] = windowSum(y[start : start+occWindowSamples])
		m[i] = cmplx.Abs(r[i])
	}
	if m[0] == 0 {
		return OccupancySingle
	}
	rho1, rho2 := r[1]/r[0], r[2]/r[0]
	cons := cmplx.Abs(rho2 - rho1*rho1)
	magTol := occRelTolerance * m[0]
	if math.Abs(m[1]-m[0]) <= magTol && math.Abs(m[2]-m[0]) <= magTol && cons <= occConsistencyTol {
		return OccupancySingle
	}
	w := medianFloat(b.referenceProbes())

	magGate := magTol
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
	if cons > consGate {
		return OccupancyMultiple
	}
	return OccupancySingle
}

// occStarts are the occupancy windows' start samples: the base window
// at 0, then the occShifts. Every window is a whole quarter of the
// capture and starts inside it.
var occStarts = [3]int{0, int(captureSamples * occShifts[0]), int(captureSamples * occShifts[1])}

// referenceProbes returns the magnitudes of the occupancy test's
// reference probes on the loaded capture — DFT bins ±2…±5 of each
// window, in window order, −k before +k — from which Occupancy takes
// its interference floor. The slice is the bank's and valid until the
// next call.
func (b *ProbeBank) referenceProbes() []float64 {
	// A reference frequency outside (0, 1) cycles per sample is dropped
	// rather than aliased; decide on the frequency itself, as a direct
	// evaluation would.
	winBin := phy.SampleRate / float64(occWindowSamples)
	var usePos, useNeg [maxProbeBin + 1]bool
	for k := 2; k <= maxProbeBin; k++ {
		usePos[k] = validProbeFreq((b.freqHz + float64(k)*winBin) / phy.SampleRate)
		useNeg[k] = validProbeFreq((b.freqHz - float64(k)*winBin) / phy.SampleRate)
	}
	y := b.loaded()
	refs := b.refs[:0]
	for _, start := range occStarts {
		b.nearBins(y[start:start+occWindowSamples], windowTwiddles, 2, maxProbeBin)
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
	return refs
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
	b.loaded()
	const m = captureSamples / 4
	var sum complex128
	for _, v := range b.whole[:m] { // class 0: Σ_r y[j+rM]
		sum += v
	}
	pos, neg := dotPair(b.whole[m:2*m], b.whole[2*m:3*m], captureTwiddles.row(1))
	return cmplx.Abs(sum), max(cmplx.Abs(neg), cmplx.Abs(pos))
}

// windowSum returns Σ z — DFT bin 0 — in the order nearBins's fold
// would: fold class 0, (z[j]+z[j+2M]) + (z[j+M]+z[j+3M]), summed over j.
func windowSum(z []complex128) complex128 {
	m := len(z) / 4
	z0, z1, z2, z3 := z[:m], z[m:2*m], z[2*m:3*m], z[3*m:4*m]
	var sum complex128
	for j := range z0 {
		sum += (z0[j] + z2[j]) + (z1[j] + z3[j])
	}
	return sum
}

// nearBins leaves DFT bins ±kLo…±kHi of z in b.pos and b.neg. tw is
// the twiddle table of z's length.
//
// With L = len(z) = 4M, splitting the index as j + rM gives
//
//	X[k] = Σ_{j<M} e^{-2πi k j/L} · Σ_{r<4} z[j+rM]·(−i)^{kr},
//
// and the inner sum depends on k only through k mod 4: four folded
// classes, built with additions alone, serve every bin, each bin then
// costing an M-term dot product against a fixed twiddle row. Bins +k
// and −k share a row (one conjugated), so one pass yields both.
func (b *ProbeBank) nearBins(z []complex128, tw *probeTwiddles, kLo, kHi int) {
	m := tw.m
	b.fold = growComplexSlice(b.fold, len(z))
	classes := b.fold
	fold4(classes, z)
	for k := kLo; k <= kHi; k++ {
		cp, cn := (k&3)*m, (-k&3)*m
		b.pos[k], b.neg[k] = dotPair(classes[cp:cp+m], classes[cn:cn+m], tw.row(k))
	}
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
