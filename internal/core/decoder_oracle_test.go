package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
)

// oracleDecoder is §8's combiner as the paper states it, a sample at a
// time: one Goertzel walk for ĥ, a second walk accumulating
// r(t)·e^{−j2πΔf·t}/ĥ into a complex buffer as long as the capture,
// and a TryDecode that copies the real envelope out and hands it to the
// envelope demodulator. It was the production Decoder until the
// chip-domain rebuild, which must agree with it decision for decision.
type oracleDecoder struct {
	target float64
	sum    []complex128
	n      int
	demod  phy.DemodScratch
}

func (d *oracleDecoder) Add(capture []complex128) error {
	if len(capture) != len(d.sum) {
		return fmt.Errorf("core: capture of %d samples, want %d", len(capture), len(d.sum))
	}
	spike := dsp.Goertzel(capture, d.target/phy.SampleRate)
	h := spike * complex(2/float64(len(capture)), 0)
	if cmplx.Abs(h) == 0 {
		return fmt.Errorf("core: target spike absent from capture")
	}
	rot := cmplx.Exp(complex(0, -2*math.Pi*d.target/phy.SampleRate))
	w := complex(1, 0)
	inv := 1 / h
	for i, s := range capture {
		d.sum[i] += s * w * inv
		w *= rot
		if i&1023 == 1023 {
			w /= complex(cmplx.Abs(w), 0)
		}
	}
	d.n++
	return nil
}

func (d *oracleDecoder) TryDecode() (*phy.Frame, error) {
	if d.n == 0 {
		return nil, fmt.Errorf("core: no captures combined yet")
	}
	env := make([]float64, len(d.sum))
	for i, s := range d.sum {
		env[i] = real(s)
	}
	f, err := d.demod.DemodulateFrame(env, phy.SampleRate)
	if err != nil {
		if errors.Is(err, phy.ErrBadCRC) || errors.Is(err, phy.ErrBadPreamble) {
			return nil, ErrNeedMoreCollisions
		}
		return nil, err
	}
	return &f, nil
}

// chipEnergies integrates the oracle's accumulated real envelope over
// each chip — what the chip-domain accumulator should hold.
func (d *oracleDecoder) chipEnergies() []float64 {
	out := make([]float64, phy.FrameChips)
	for c := range out {
		for _, s := range d.sum[c*phy.ChipSamples : (c+1)*phy.ChipSamples] {
			out[c] += real(s)
		}
	}
	return out
}

// runAgainstOracle feeds one capture stream to a Decoder and to the
// oracle, aimed alike, and requires the same outcome from every Add
// and every TryDecode — same error, same frame — until the target
// decodes or the stream ends, and then chip accumulators equal to
// 1e-9 of the largest entry. It returns the decoded frame (nil if
// none) and the captures combined.
func runAgainstOracle(t *testing.T, what string, target float64, stream [][]complex128) (*phy.Frame, int) {
	t.Helper()
	dec := NewDecoder(target)
	ora := &oracleDecoder{target: target, sum: make([]complex128, phy.ResponseSamples)}
	var frame *phy.Frame
	for q, c := range stream {
		errNew, errOld := dec.Add(c), ora.Add(c)
		if (errNew == nil) != (errOld == nil) {
			t.Fatalf("%s, query %d: Add returned %v, oracle %v", what, q, errNew, errOld)
		}
		got, errNew := dec.TryDecode()
		want, errOld := ora.TryDecode()
		if errNew != errOld && (errNew == nil || errOld == nil || errNew.Error() != errOld.Error()) {
			t.Fatalf("%s, query %d: TryDecode returned %v, oracle %v", what, q, errNew, errOld)
		}
		if errNew == nil {
			if *got != *want {
				t.Fatalf("%s, query %d: decoded %v, oracle %v", what, q, got, want)
			}
			frame = got
			break
		}
	}
	if dec.N() != ora.n {
		t.Fatalf("%s: combined %d captures, oracle %d", what, dec.N(), ora.n)
	}
	want := ora.chipEnergies()
	if len(dec.acc) != len(want) {
		t.Fatalf("%s: %d chip accumulators, oracle integrates to %d", what, len(dec.acc), len(want))
	}
	var scale float64
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for c, v := range want {
		if math.Abs(dec.acc[c]-v) > 1e-9*scale {
			t.Fatalf("%s: chip %d accumulated %g, oracle %g (largest chip %g)", what, c, dec.acc[c], v, scale)
		}
	}
	return frame, dec.N()
}

// streamSource replays a recorded stream once, in order.
func streamSource(stream [][]complex128) CaptureSource {
	next := 0
	return func() ([]complex128, error) {
		next++
		return stream[next-1], nil
	}
}

// referenceStream records n collisions of devs off the reference
// antenna.
func (s *testScene) referenceStream(devs int, n int) (targets []float64, stream [][]complex128) {
	placed := s.placedDevices(devs)
	spikes, err := AnalyzeCaptures(s.collideQueries(placed, 5), s.param)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, sp := range spikes {
		targets = append(targets, sp.Freq)
	}
	for q := 0; q < n; q++ {
		stream = append(stream, s.collide(placed).Reference())
	}
	return targets, stream
}

// TestDecoderMatchesPerSampleOracle is the equivalence the chip-domain
// rebuild rests on: on recorded scenes at the benchmark's four
// densities, every target of every scene gets the oracle's frame after
// the oracle's number of queries, from accumulators that differ from
// the oracle's in the last bits only. DecodeAll over the same stream
// must report exactly those frames and query counts.
func TestDecoderMatchesPerSampleOracle(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 1
	}
	for _, devs := range []int{4, 12, 24, 40} {
		decoded, targets := 0, 0
		for seed := 0; seed < seeds; seed++ {
			s := newTestScene(t, int64(9100+100*devs+seed))
			freqs, stream := s.referenceStream(devs, 60)
			want := make(map[float64]DecodeResult)
			for _, f := range freqs {
				what := fmt.Sprintf("%d devices, seed %d, target %.0f Hz", devs, seed, f)
				if frame, queries := runAgainstOracle(t, what, f, stream); frame != nil {
					want[f] = DecodeResult{Frame: frame, Queries: queries}
				}
			}
			got, err := DecodeAll(streamSource(stream), s.param.SampleRate, freqs, len(stream))
			if err != nil && !errors.Is(err, ErrNeedMoreCollisions) {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d devices, seed %d: DecodeAll decoded %d targets, the oracle %d", devs, seed, len(got), len(want))
			}
			for f, w := range want {
				if g, ok := got[f]; !ok || *g.Frame != *w.Frame || g.Queries != w.Queries {
					t.Errorf("%d devices, seed %d, target %.0f Hz: DecodeAll %+v, oracle %+v", devs, seed, f, g, w)
				}
			}
			decoded += len(want)
			targets += len(freqs)
		}
		if decoded == 0 {
			t.Errorf("%d devices: no target decoded in any scene — the comparison never reached a frame", devs)
		}
		t.Logf("%d devices: %d of %d targets decoded, all as the oracle", devs, decoded, targets)
	}
}

// TestDecoderCaptureShapes: a capture is one response at 4 MHz or it is
// refused. Each row is a length the decoder once combined — one
// response at another rate, which names the row, or a 4 MHz capture
// running past the frame or stopping short of it — and must now be
// refused by Add with the combined state untouched: the count, every
// chip of the accumulator, and what TryDecode answers.
func TestDecoderCaptureShapes(t *testing.T) {
	const target = 250e3
	tone := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Exp(complex(0, 2*math.Pi*target*float64(i)/phy.SampleRate))
		}
		return x
	}
	for _, tc := range []struct {
		name    string
		samples int
	}{
		{"0.5MHz", 256},
		{"4MHz/frame+2", 2050},
		{"4MHz/frame+tail", 3000},
		{"4MHz/short", 1000},
		{"4MHz/short-odd", 2047},
		{"8MHz/frame", 4096},
		{"8MHz/frame+3", 4099},
		{"5MHz/frame+1", 2561},
		{"1MHz/frame", 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A decoder with one good capture combined already.
			dec := NewDecoder(target)
			if err := dec.Add(tone(phy.ResponseSamples)); err != nil {
				t.Fatal(err)
			}
			n, acc := dec.N(), append([]float64(nil), dec.acc...)
			_, tryBefore := dec.TryDecode()
			err := dec.Add(tone(tc.samples))
			if err == nil {
				t.Fatal("capture accepted")
			}
			if dec.N() != n || len(dec.acc) != phy.FrameChips {
				t.Fatalf("refused capture changed the decoder: %d captures, %d chips", dec.N(), len(dec.acc))
			}
			for c, v := range acc {
				if dec.acc[c] != v {
					t.Fatalf("refused capture changed chip %d of the accumulator", c)
				}
			}
			if _, tryAfter := dec.TryDecode(); fmt.Sprint(tryAfter) != fmt.Sprint(tryBefore) {
				t.Errorf("TryDecode answered %v before the refused capture, %v after", tryBefore, tryAfter)
			}
		})
	}
}

// TestDecoderRejectsNonFiniteCapture: one NaN or Inf sample makes the
// channel estimate non-finite. Add must refuse such a capture before
// it reaches the accumulator, so that good–bad–good decodes exactly as
// good–good does; DecodeAll must ride over it.
func TestDecoderRejectsNonFiniteCapture(t *testing.T) {
	caps, freqs, _, param := decodeFixture(t, 9401, 3, 40)
	var good [][]complex128
	for _, mc := range caps {
		good = append(good, mc.Reference())
	}
	poisoned := func(v complex128) []complex128 {
		c := append([]complex128(nil), good[0]...)
		c[777] = v
		return c
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := [][]complex128{poisoned(complex(nan, 0)), poisoned(complex(0, inf)), poisoned(complex(-inf, nan))}

	decode := func(stream [][]complex128) (*phy.Frame, int, []float64) {
		dec := NewDecoder(freqs[0])
		for _, c := range stream {
			before, n := append([]float64(nil), dec.acc...), dec.N()
			if err := dec.Add(c); err != nil {
				if dec.N() != n || len(dec.acc) != len(before) {
					t.Fatalf("refused capture changed the combined count %d → %d", n, dec.N())
				}
				for i, v := range before {
					if dec.acc[i] != v {
						t.Fatalf("refused capture changed chip %d of the accumulator", i)
					}
				}
				continue
			}
			if f, err := dec.TryDecode(); err == nil {
				return f, dec.N(), append([]float64(nil), dec.acc...)
			}
		}
		t.Fatal("fixture target undecodable")
		return nil, 0, nil
	}
	wantFrame, wantN, wantAcc := decode(good)
	if wantN < 2 {
		t.Fatalf("fixture decodes after %d captures; the bad ones would never be seen", wantN)
	}
	for _, b := range bad {
		if err := NewDecoder(freqs[0]).Add(b); err == nil {
			t.Fatal("capture with a non-finite sample accepted")
		}
	}
	// A bad capture first, and all three after the first good one.
	mixed := append([][]complex128{bad[0], good[0]}, bad...)
	mixed = append(mixed, good[1:]...)
	gotFrame, gotN, gotAcc := decode(mixed)
	if *gotFrame != *wantFrame || gotN != wantN {
		t.Errorf("with bad captures interleaved: %v after %d, without: %v after %d", gotFrame, gotN, wantFrame, wantN)
	}
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("chip %d accumulated %g with bad captures interleaved, %g without", i, gotAcc[i], wantAcc[i])
		}
	}

	want, err := DecodeAll(streamSource(good), param.SampleRate, freqs, len(good))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(streamSource(mixed), param.SampleRate, freqs, len(mixed))
	if err != nil {
		t.Fatal(err)
	}
	for f, w := range want {
		if g, ok := got[f]; !ok || *g.Frame != *w.Frame || g.Queries != w.Queries {
			t.Errorf("target %.0f Hz: DecodeAll over the poisoned stream %+v, clean stream %+v", f, g, w)
		}
	}
}
