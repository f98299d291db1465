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
	sampleRate float64
	target     float64
	sum        []complex128
	n          int
	demod      phy.DemodScratch
}

func (d *oracleDecoder) Add(capture []complex128) error {
	if len(capture) == 0 {
		return fmt.Errorf("core: empty capture")
	}
	if len(d.sum) == 0 {
		d.sum = make([]complex128, len(capture))
	}
	if len(capture) != len(d.sum) {
		return fmt.Errorf("core: capture length %d differs from first capture %d", len(capture), len(d.sum))
	}
	spike := dsp.Goertzel(capture, d.target/d.sampleRate)
	h := spike * complex(2/float64(len(capture)), 0)
	if cmplx.Abs(h) == 0 {
		return fmt.Errorf("core: target spike absent from capture")
	}
	rot := cmplx.Exp(complex(0, -2*math.Pi*d.target/d.sampleRate))
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
	f, err := d.demod.DemodulateFrame(env, d.sampleRate)
	if err != nil {
		if errors.Is(err, phy.ErrBadCRC) || errors.Is(err, phy.ErrBadPreamble) {
			return nil, ErrNeedMoreCollisions
		}
		return nil, err
	}
	return &f, nil
}

// chipEnergies integrates the oracle's accumulated real envelope over
// each whole chip — what the chip-domain accumulator should hold.
func (d *oracleDecoder) chipEnergies() []float64 {
	spc := phy.SamplesPerChip(d.sampleRate)
	if spc < 1 {
		return nil
	}
	out := make([]float64, min(len(d.sum)/spc, phy.FrameChips))
	for c := range out {
		for _, s := range d.sum[c*spc : (c+1)*spc] {
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
func runAgainstOracle(t *testing.T, what string, sampleRate, target float64, stream [][]complex128) (*phy.Frame, int) {
	t.Helper()
	dec := NewDecoder(sampleRate, target)
	ora := &oracleDecoder{sampleRate: sampleRate, target: target}
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
				if frame, queries := runAgainstOracle(t, what, s.param.SampleRate, f, stream); frame != nil {
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

// TestDecoderCaptureShapes covers what a capture may look like besides
// 2048 samples at 4 MHz, each against the oracle: eight samples per
// chip, lengths that are no multiple of the chip, captures running
// past the frame's end or stopping short of it, and a sample rate too
// low to hold a chip (which no transponder model replies at, so that
// capture is a bare tone).
func TestDecoderCaptureShapes(t *testing.T) {
	t.Run("0.5MHz", func(t *testing.T) {
		tone := make([]complex128, 256)
		for i := range tone {
			tone[i] = complex(1, 0)
		}
		runAgainstOracle(t, "0.5 MHz", 0.5e6, 0, [][]complex128{tone, tone})
		dec := NewDecoder(0.5e6, 0)
		if err := dec.Add(tone); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.TryDecode(); err != phy.ErrLowSampleRate {
			t.Errorf("TryDecode returned %v, want bare phy.ErrLowSampleRate", err)
		}
	})
	for _, tc := range []struct {
		name       string
		sampleRate float64
		samples    int
		tryErr     error // what TryDecode keeps returning, nil for a decode
	}{
		{"4MHz/frame+2", 4e6, 2050, nil},
		{"4MHz/frame+tail", 4e6, 3000, nil},
		{"4MHz/short", 4e6, 1000, phy.ErrShortEnvelope},
		{"4MHz/short-odd", 4e6, 2047, phy.ErrShortEnvelope},
		{"8MHz/frame", 8e6, 4096, nil},
		{"8MHz/frame+3", 8e6, 4099, nil},
		{"5MHz/frame+1", 5e6, 2561, nil},
		{"1MHz/frame", 1e6, 512, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestScene(t, 9301)
			s.param.SampleRate, s.cfg.SampleRate, s.cfg.NumSamples = tc.sampleRate, tc.sampleRate, tc.samples
			devs := s.placedDevices(2)
			devs[0].CarrierHz = s.param.ReaderLO + 0.11*tc.sampleRate
			devs[1].CarrierHz = s.param.ReaderLO + 0.23*tc.sampleRate
			var stream [][]complex128
			for q := 0; q < 20; q++ {
				stream = append(stream, s.collide(devs).Reference())
			}
			for _, d := range devs {
				frame, _ := runAgainstOracle(t, tc.name, tc.sampleRate, d.CFO(s.param.ReaderLO), stream)
				if tc.tryErr == nil && (frame == nil || frame.ID() != d.ID()) {
					t.Errorf("decoded %v, want id %#x", frame, d.ID())
				}
			}
			if tc.tryErr != nil {
				dec := NewDecoder(tc.sampleRate, devs[0].CFO(s.param.ReaderLO))
				if err := dec.Add(stream[0]); err != nil {
					t.Fatal(err)
				}
				if _, err := dec.TryDecode(); err != tc.tryErr {
					t.Errorf("TryDecode returned %v, want bare %v", err, tc.tryErr)
				}
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
		dec := NewDecoder(param.SampleRate, freqs[0])
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
		if err := NewDecoder(param.SampleRate, freqs[0]).Add(b); err == nil {
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
