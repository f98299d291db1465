package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// classifyBinOracle is the §5 dual-window test as it ran before the
// probe bank: 27 separate GoertzelWindow walks (3 window centres, 8
// reference frequencies × 3 windows), the expected rotation of the
// probe frequency divided out of ρ by hand. It returns the verdict and
// the reference magnitudes it took the floor from.
func classifyBinOracle(samples []complex128, sampleRate, freqHz float64) (Occupancy, []float64) {
	n := len(samples)
	if n == 0 {
		return OccupancySingle, nil
	}
	winLen := int(float64(n) * OccupancyWindowFrac)
	if winLen < 4 {
		winLen = n
	}
	fNorm := freqHz / sampleRate

	starts := [3]int{0}
	for i, frac := range occShifts {
		start := int(float64(n) * frac)
		if start+winLen > n {
			start = n - winLen
		}
		if start <= 0 {
			return OccupancySingle, nil
		}
		starts[i+1] = start
	}

	var r [3]complex128
	var m [3]float64
	for i, start := range starts {
		r[i] = GoertzelWindow(samples, fNorm, start, winLen)
		m[i] = cmplx.Abs(r[i])
	}
	if m[0] == 0 {
		return OccupancySingle, nil
	}

	var refs []float64
	winBin := sampleRate / float64(winLen)
	for _, k := range [...]float64{2, 3, 4, 5} {
		for _, sign := range [...]float64{-1, 1} {
			rf := (freqHz + sign*k*winBin) / sampleRate
			if rf <= 0 || rf >= 1 {
				continue
			}
			for _, start := range starts {
				refs = append(refs, cmplx.Abs(GoertzelWindow(samples, rf, start, winLen)))
			}
		}
	}
	w := medianFloat(append([]float64(nil), refs...))

	magGate := occRelTolerance * m[0]
	if g := occKMag * w; g > magGate {
		magGate = g
	}
	for i := 1; i < 3; i++ {
		if math.Abs(m[i]-m[0]) > magGate {
			return OccupancyMultiple, refs
		}
	}

	consGate := occConsistencyTol
	if g := occKCons * w / m[0]; g > consGate {
		consGate = g
	}
	var rho [2]complex128
	for i := 1; i < 3; i++ {
		expected := cmplx.Exp(complex(0, -2*math.Pi*fNorm*float64(starts[i])))
		rho[i-1] = r[i] / r[0] * expected
	}
	if cmplx.Abs(rho[1]-rho[0]*rho[0]) > consGate {
		return OccupancyMultiple, refs
	}
	return OccupancySingle, refs
}

// bankCase is one capture shape and probe frequency of the oracle
// sweep. windowFrac sizes the windows TestProbeBankMatchesGoertzel reads
// through nearBins; the occupancy test's window is OccupancyWindowFrac,
// so its oracle sweep takes only the cases at that fraction.
type bankCase struct {
	n          int
	windowFrac float64
	freq       float64 // Hz, at 4 MHz
}

// bankCases covers window lengths four divides (512, 128, 1024) and does
// not (511, 250, 614, 6), a full-length window (a set fraction of 1, and
// what the occupancy test falls back to below 16 samples), captures below
// Goertzel's 16-sample grouped path, and probe frequencies within five
// window bins of 0 and of the sample rate, where reference probes drop
// out.
func bankCases(rng *rand.Rand) []bankCase {
	const fs = 4e6
	var cases []bankCase
	for _, shape := range []struct {
		n    int
		frac float64
	}{
		{2048, 0.25}, {2047, 0.25}, {1000, 0.25}, {512, 0.25}, {2456, 0.25}, {4096, 0.25},
		{2048, 0.3}, {2048, 0.5}, {2048, 1}, {12, 0.5}, {15, 0.3}, {9, 0.25}, {12, 0.25},
	} {
		winBin := fs / (float64(shape.n) * shape.frac)
		freqs := []float64{
			(0.02 + 0.25*rng.Float64()) * fs,                                   // mid-band
			(0.55 + 0.3*rng.Float64()) * fs,                                    // upper half
			0.4 * winBin, 1.7 * winBin, 2 * winBin, 3.3 * winBin, 4.9 * winBin, // near 0
			fs - 0.6*winBin, fs - 2.5*winBin, fs - 4.2*winBin, // near fs
		}
		for _, f := range freqs {
			cases = append(cases, bankCase{shape.n, shape.frac, f})
		}
	}
	return cases
}

// bankSignal draws a capture of one or two tones near freq in noise.
func bankSignal(rng *rand.Rand, n int, freq float64) []complex128 {
	tones := []Tone{{Freq: freq, Amp: complex(float64(n), 0) * cis(rng.Float64()*6.28)}}
	if rng.Intn(2) == 0 {
		sep := (0.15 + 0.8*rng.Float64()) * 4e6 / float64(n)
		tones = append(tones, Tone{Freq: freq + sep, Amp: complex(float64(n), 0) * cis(rng.Float64()*6.28)})
	}
	return toneSignal(rng, n, 4e6, 0.05, tones)
}

// TestProbeBankMatchesGoertzel: every probe the bank reads off the
// de-rotated capture — window centres, reference bins, the capture's
// centre and shoulders — lies within 1e-9·Σ|x| of Goertzel walking the
// raw samples at the same frequency, as complex values (the bank's carry
// the phasor at the window start, a known unit factor).
func TestProbeBankMatchesGoertzel(t *testing.T) {
	const fs = 4e6
	rng := rand.New(rand.NewSource(71))
	var b ProbeBank
	for _, tc := range bankCases(rng) {
		x := bankSignal(rng, tc.n, tc.freq)
		var l1 float64
		for _, v := range x {
			l1 += cmplx.Abs(v)
		}
		tol := 1e-9 * l1
		fNorm := tc.freq / fs
		b.Tune(fs, tc.freq, tc.n)
		b.Load(x)

		winLen := int(float64(tc.n) * tc.windowFrac)
		for _, start := range []int{0, (tc.n - winLen) / 3, tc.n - winLen} {
			rot := cmplx.Exp(complex(0, -2*math.Pi*fNorm*float64(start)))
			sum := b.nearBins(b.y[start:start+winLen], 1, maxProbeBin)
			check := func(k int, got complex128) {
				want := rot * GoertzelWindow(x, fNorm+float64(k)/float64(winLen), start, winLen)
				if d := cmplx.Abs(got - want); d > tol {
					t.Errorf("%+v window [%d,+%d) bin %+d: bank %v, Goertzel %v (|Δ| %.3g > %.3g)",
						tc, start, winLen, k, got, want, d, tol)
				}
			}
			check(0, sum)
			for k := 1; k <= maxProbeBin; k++ {
				check(k, b.pos[k])
				check(-k, b.neg[k])
			}
		}

		centre, side := b.Shoulder()
		wantCentre := cmplx.Abs(Goertzel(x, fNorm))
		wantSide := math.Max(cmplx.Abs(Goertzel(x, fNorm-1/float64(tc.n))), cmplx.Abs(Goertzel(x, fNorm+1/float64(tc.n))))
		if math.Abs(centre-wantCentre) > tol || math.Abs(side-wantSide) > tol {
			t.Errorf("%+v: Shoulder (%g, %g), Goertzel (%g, %g)", tc, centre, side, wantCentre, wantSide)
		}
	}
}

// TestProbeBankOccupancyMatchesOracle: the bank reaches the 27-Goertzel
// oracle's verdict from the same reference probes — the same number of
// them (near 0 and the sample rate some drop out) with the same
// magnitudes — on every shape and frequency of the sweep, and both
// verdicts occur.
func TestProbeBankOccupancyMatchesOracle(t *testing.T) {
	const fs = 4e6
	rng := rand.New(rand.NewSource(72))
	var b ProbeBank
	verdicts := map[Occupancy]int{}
	dropped := 0
	for round := 0; round < 4; round++ {
		for _, tc := range bankCases(rng) {
			if tc.windowFrac != OccupancyWindowFrac {
				continue // a nearBins shape; the test's window is fixed
			}
			x := bankSignal(rng, tc.n, tc.freq)
			var l1 float64
			for _, v := range x {
				l1 += cmplx.Abs(v)
			}
			want, wantRefs := classifyBinOracle(x, fs, tc.freq)
			b.Tune(fs, tc.freq, tc.n)
			b.Load(x)
			got := b.Occupancy()
			verdicts[got]++
			if got != want {
				t.Errorf("%+v: bank %v, oracle %v", tc, got, want)
			}
			if wantRefs == nil {
				continue // the oracle returned before probing
			}
			gotRefs := append([]float64(nil), b.refs...)
			if len(gotRefs) != len(wantRefs) {
				t.Errorf("%+v: bank kept %d reference probes, oracle %d", tc, len(gotRefs), len(wantRefs))
				continue
			}
			if len(wantRefs) < 24 {
				dropped++
			}
			sort.Float64s(gotRefs)
			sort.Float64s(wantRefs)
			for i := range wantRefs {
				if math.Abs(gotRefs[i]-wantRefs[i]) > 1e-9*l1 {
					t.Errorf("%+v: reference magnitude %d: bank %g, oracle %g", tc, i, gotRefs[i], wantRefs[i])
				}
			}
		}
	}
	if verdicts[OccupancySingle] == 0 || verdicts[OccupancyMultiple] == 0 {
		t.Errorf("sweep is one-sided: %v", verdicts)
	}
	if dropped == 0 {
		t.Error("sweep never drops a reference probe")
	}
}

// TestProbeBankRetune: a bank moved between frequencies and capture
// lengths answers as a fresh one does, and an unloaded bank reads as an
// empty capture.
func TestProbeBankRetune(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var reused ProbeBank
	if got := reused.Occupancy(); got != OccupancySingle {
		t.Errorf("zero bank classified as %v", got)
	}
	for _, n := range []int{2048, 600, 2048, 1000} {
		freq := (0.05 + 0.2*rng.Float64()) * 4e6
		x := bankSignal(rng, n, freq)
		var fresh ProbeBank
		fresh.Tune(4e6, freq, n)
		reused.Tune(4e6, freq, n)
		if got := reused.Occupancy(); got != OccupancySingle {
			t.Errorf("n=%d: tuned but unloaded bank classified as %v", n, got)
		}
		fresh.Load(x)
		reused.Load(x)
		fc, fs := fresh.Shoulder()
		rc, rs := reused.Shoulder()
		if fresh.Occupancy() != reused.Occupancy() || fc != rc || fs != rs {
			t.Errorf("n=%d: reused bank diverges from a fresh one", n)
		}
	}
}

// TestProbeBankSteadyStateAllocs: a warmed bank — phasor table,
// de-rotation and fold buffers, twiddle lookups — allocates nothing,
// alternating between two capture lengths included.
func TestProbeBankSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	xs := [][]complex128{randSignal(rng, 2048, 2), randSignal(rng, 1000, 2)}
	var b ProbeBank
	run := func() {
		for _, x := range xs {
			b.Tune(4e6, 3e5, len(x))
			b.Load(x)
			b.Occupancy()
			b.Shoulder()
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state ProbeBank allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSelectFloat: SelectFloat leaves at k what sort.Float64s would —
// ties, NaNs and infinities included — with nothing larger before it
// and nothing smaller after, and medianFloat is the sorted slice's
// median, to the bit.
func TestSelectFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(80)
		if trial%50 == 0 {
			n = 500 + rng.Intn(2000)
		}
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(12) {
			case 0:
				x[i] = float64(rng.Intn(4)) // ties
			case 1:
				if trial%3 == 0 {
					x[i] = math.NaN()
				}
			case 2:
				x[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				x[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		if trial%2 == 0 {
			k = n / 2
		}
		y := append([]float64(nil), x...)
		if got := SelectFloat(y, k); bits(got) != bits(sorted[k]) || bits(y[k]) != bits(got) {
			t.Fatalf("trial %d: SelectFloat(n=%d, k=%d) = %g, sorted[k] = %g", trial, n, k, got, sorted[k])
		}
		for i, v := range y {
			if (i < k && floatLess(y[k], v)) || (i > k && floatLess(v, y[k])) {
				t.Fatalf("trial %d: element %d (%g) on the wrong side of x[%d] = %g", trial, i, v, k, y[k])
			}
		}
		want := sorted[n/2]
		if n%2 == 0 {
			want = 0.5 * (sorted[n/2-1] + sorted[n/2])
		}
		if got := medianFloat(append([]float64(nil), x...)); bits(got) != bits(want) {
			t.Fatalf("trial %d: medianFloat(n=%d) = %g, sorted median %g", trial, n, got, want)
		}
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("medianFloat(nil) = %g", got)
	}
}

// BenchmarkClassifyBin measures one dual-window occupancy test of a
// 2048-sample capture: the 27-Goertzel oracle against the probe bank
// (tune + de-rotate + classify, as Plan.ClassifyBin runs it), and the
// bank's per-capture share once a peak's phasor is tabulated.
func BenchmarkClassifyBin(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	x := randSignal(rng, 2048, 3)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			classifyBinOracle(x, 4e6, 3e5)
		}
	})
	b.Run("bank", func(b *testing.B) {
		pl := new(Plan)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl.ClassifyBin(x, 4e6, 3e5)
		}
	})
	b.Run("bank-tuned", func(b *testing.B) {
		var bank ProbeBank
		bank.Tune(4e6, 3e5, len(x))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bank.Load(x)
			bank.Occupancy()
		}
	})
}

// BenchmarkMedianFloat measures the floor median at the sizes the
// analysis takes it: 24 reference probes, a 28-bin neighborhood, a
// 2048-bin spectrum.
func BenchmarkMedianFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{24, 28, 2048} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.ExpFloat64()
		}
		x := make([]float64, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				medianFloat(x)
			}
		})
	}
}
