package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"caraoke/internal/rfsim"
)

// copySpikes deep-copies a scratch-backed result so it survives further
// calls on the same Scratch.
func copySpikes(spikes []Spike) []Spike {
	out := make([]Spike, len(spikes))
	for i, s := range spikes {
		out[i] = s
		out[i].Channels = append([]complex128(nil), s.Channels...)
	}
	return out
}

// TestScratchReuseMatchesFresh: one Scratch analyzing a sequence of
// different scenes (different collision sizes, so buffers regrow and
// carry state between calls) produces exactly what a fresh Scratch
// produces for each capture. This is the reuse-safety oracle: no call
// may observe a previous call's leftovers.
func TestScratchReuseMatchesFresh(t *testing.T) {
	s := newTestScene(t, 4021)
	var reused Scratch
	for _, nDevs := range []int{3, 12, 1, 7, 12, 5} {
		devs := s.placedDevices(nDevs)
		mc := s.collide(devs)
		got, err := reused.AnalyzeCapture(mc, s.param)
		if err != nil {
			t.Fatal(err)
		}
		got = copySpikes(got)
		want, err := AnalyzeCapture(mc, s.param) // throwaway scratch
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nDevs=%d: reused scratch diverges: %d spikes vs %d", nDevs, len(got), len(want))
		}
	}
}

// TestScratchAnalyzeCapturesReuseMatchesFresh covers the multi-query
// averaging path across scenes of varying size.
func TestScratchAnalyzeCapturesReuseMatchesFresh(t *testing.T) {
	s := newTestScene(t, 4022)
	var reused Scratch
	for _, tc := range []struct{ nDevs, queries int }{
		{8, 5}, {15, 3}, {4, 8}, {15, 5},
	} {
		devs := s.placedDevices(tc.nDevs)
		mcs := s.collideQueries(devs, tc.queries)
		got, err := reused.AnalyzeCaptures(mcs, s.param, 1)
		if err != nil {
			t.Fatal(err)
		}
		got = copySpikes(got)
		want, err := AnalyzeCaptures(mcs, s.param)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: reused scratch diverges: %d spikes vs %d", tc, len(got), len(want))
		}
	}
}

// TestAnalyzeCaptureSteadyStateAllocs: the single-capture analysis on a
// warmed Scratch allocates nothing — the tentpole's core assertion.
func TestAnalyzeCaptureSteadyStateAllocs(t *testing.T) {
	s := newTestScene(t, 4023)
	mc := s.collide(s.placedDevices(10))
	var sc Scratch
	if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AnalyzeCapture allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTryDecodeSteadyStateAllocs is the regression test for the
// satellite fix: repeated TryDecode calls (the common CRC-miss path
// while combining) must not allocate, and Add must reuse its
// accumulator.
func TestTryDecodeSteadyStateAllocs(t *testing.T) {
	s := newTestScene(t, 4024)
	devs := s.placedDevices(6)
	// Aim at a frequency none of the devices occupy: every TryDecode
	// fails its checksum, exercising the steady-state path forever.
	dec := NewDecoder(987e3)
	cap1 := s.collide(devs).Reference()
	if err := dec.Add(cap1); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.TryDecode(); !errors.Is(err, ErrNeedMoreCollisions) {
		t.Fatalf("expected ErrNeedMoreCollisions, got %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := dec.TryDecode(); !errors.Is(err, ErrNeedMoreCollisions) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state TryDecode allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if err := dec.Add(cap1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Add allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDecodeWithSICScratchReuse: the pooled SIC sweep on a reused
// Scratch equals a throwaway-scratch run on identical captures.
func TestDecodeWithSICScratchReuse(t *testing.T) {
	caps, _, devs, param := decodeFixture(t, 4026, 3, 40)
	snapshot := func() [][]complex128 {
		out := make([][]complex128, len(caps))
		for i, mc := range caps {
			out[i] = append([]complex128(nil), mc.Reference()...)
		}
		return out
	}
	src := func(capSet [][]complex128) CaptureSource {
		i := 0
		return func() ([]complex128, error) {
			c := capSet[i%len(capSet)]
			i++
			return c, nil
		}
	}
	var sc Scratch
	// Warm the scratch on an unrelated capture first.
	if _, err := sc.AnalyzeCapture(caps[0], param); err != nil {
		t.Fatal(err)
	}
	got, err := sc.DecodeWithSIC(src(snapshot()), param, len(devs)+2, 30)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeWithSIC(src(snapshot()), param, len(devs)+2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || len(got.Decoded) != len(want.Decoded) {
		t.Fatalf("reused scratch: %d rounds/%d decoded, fresh: %d/%d",
			got.Rounds, len(got.Decoded), want.Rounds, len(want.Decoded))
	}
	for f, w := range want.Decoded {
		g, ok := got.Decoded[f]
		if !ok || g.Frame.ID() != w.Frame.ID() || g.Queries != w.Queries {
			t.Errorf("CFO %.0f: reused %+v, fresh %+v", f, g, w)
		}
	}
}

// poisoned returns a deep copy of mc with one sample of the given
// antenna replaced by v.
func poisoned(mc *rfsim.MultiCapture, antenna int, v float64) *rfsim.MultiCapture {
	out := &rfsim.MultiCapture{}
	for _, st := range mc.Antennas {
		out.Antennas = append(out.Antennas, append([]complex128(nil), st...))
	}
	out.Antennas[antenna][len(out.Antennas[antenna])/3] = complex(v, 0)
	return out
}

// TestAnalyzeRefusesNonFiniteCapture: one NaN or +Inf sample — in the
// reference antenna of any capture of the window, or in another antenna
// of the capture the channels are read from — is refused with
// ErrNonFiniteCapture instead of reading as an empty road, and leaves
// the Scratch as it found it: good → bad → good equals good → good to
// the bit.
func TestAnalyzeRefusesNonFiniteCapture(t *testing.T) {
	s := newTestScene(t, 4029)
	mcs := s.collideQueries(s.placedDevices(10), 6)
	want, err := AnalyzeCaptures(mcs, s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture found no spikes")
	}
	wantOne, err := AnalyzeCapture(mcs[0], s.param)
	if err != nil {
		t.Fatal(err)
	}
	last := len(mcs) - 1
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, tc := range []struct{ capture, antenna int }{{2, 0}, {last, 0}, {last, 1}} {
			window := append([]*rfsim.MultiCapture(nil), mcs...)
			window[tc.capture] = poisoned(mcs[tc.capture], tc.antenna, bad)
			name := fmt.Sprintf("%v capture %d antenna %d", bad, tc.capture, tc.antenna)
			var sc Scratch
			if _, err := sc.AnalyzeCaptures(mcs, s.param, 1); err != nil {
				t.Fatal(err)
			}
			spikes, err := sc.AnalyzeCaptures(window, s.param, 1)
			if !errors.Is(err, ErrNonFiniteCapture) || spikes != nil {
				t.Fatalf("%s: got %d spikes, err %v; want ErrNonFiniteCapture", name, len(spikes), err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("capture %d", tc.capture)) {
				t.Errorf("%s: error %q does not name the capture", name, err)
			}
			got, err := sc.AnalyzeCaptures(mcs, s.param, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: analysis after the refused window differs from a fresh one", name)
			}
		}
		for antenna := 0; antenna < 2; antenna++ {
			var sc Scratch
			if _, err := sc.AnalyzeCapture(mcs[0], s.param); err != nil {
				t.Fatal(err)
			}
			spikes, err := sc.AnalyzeCapture(poisoned(mcs[0], antenna, bad), s.param)
			if !errors.Is(err, ErrNonFiniteCapture) || spikes != nil {
				t.Fatalf("%v antenna %d: single capture got %d spikes, err %v; want ErrNonFiniteCapture", bad, antenna, len(spikes), err)
			}
			got, err := sc.AnalyzeCapture(mcs[0], s.param)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantOne) {
				t.Errorf("%v antenna %d: single-capture analysis after the refused capture differs from a fresh one", bad, antenna)
			}
		}
	}
}

// TestAnalyzeCapturesReadSet: a window's analysis reads antenna 0 of
// every capture and the other antennas of the last alone, the read set
// that lets a reader synthesize the reference antenna only for all but
// its last query. NaN in antennas ≥ 1 of every earlier capture leaves
// the result bit-identical; NaN in the last capture's antenna 1 is
// still refused.
func TestAnalyzeCapturesReadSet(t *testing.T) {
	s := newTestScene(t, 4031)
	mcs := s.collideQueries(s.placedDevices(12), 10)
	var sc Scratch
	want, err := sc.AnalyzeCaptures(mcs, s.param, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture found no spikes")
	}
	want = copySpikes(want)
	last := len(mcs) - 1
	window := append([]*rfsim.MultiCapture(nil), mcs...)
	for i, mc := range mcs[:last] {
		cp := &rfsim.MultiCapture{Antennas: [][]complex128{mc.Antennas[0]}}
		for range mc.Antennas[1:] {
			st := make([]complex128, len(mc.Antennas[0]))
			for j := range st {
				st[j] = complex(math.NaN(), math.NaN())
			}
			cp.Antennas = append(cp.Antennas, st)
		}
		window[i] = cp
	}
	got, err := sc.AnalyzeCaptures(window, s.param, 1)
	if err != nil {
		t.Fatalf("NaN outside the read set refused: %v", err)
	}
	if !sameSpikes(got, want) {
		t.Errorf("NaN outside the read set moved the result:\n got %+v\nwant %+v", got, want)
	}
	window[last] = poisoned(mcs[last], 1, math.NaN())
	if spikes, err := sc.AnalyzeCaptures(window, s.param, 1); !errors.Is(err, ErrNonFiniteCapture) || spikes != nil {
		t.Errorf("NaN in the last capture's antenna 1: got %d spikes, err %v; want ErrNonFiniteCapture", len(spikes), err)
	}
}

// sameSpikes reports whether a and b agree to the bit.
func sameSpikes(a, b []Spike) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := a[i], b[i]
		if !same(x.Freq, y.Freq) || x.Bin != y.Bin || !same(x.Mag, y.Mag) || x.Multiple != y.Multiple || len(x.Channels) != len(y.Channels) {
			return false
		}
		for k := range x.Channels {
			if !same(real(x.Channels[k]), real(y.Channels[k])) || !same(imag(x.Channels[k]), imag(y.Channels[k])) {
				return false
			}
		}
	}
	return true
}

// TestAllocBudget is the CI regression gate for the perf trajectory:
// the three steady-state hot paths — single-capture analysis, warmed
// multi-query analysis, and the per-query decode attempt — allocate
// nothing.
func TestAllocBudget(t *testing.T) {
	const (
		analyzeCaptureBudget  = 0
		analyzeCapturesBudget = 0
		tryDecodeBudget       = 0
	)
	s := newTestScene(t, 4028)
	mc := s.collide(s.placedDevices(10))
	var sc Scratch
	if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		sc.AnalyzeCapture(mc, s.param)
	}); got > analyzeCaptureBudget {
		t.Errorf("AnalyzeCapture: %.1f allocs/op exceeds budget %d", got, analyzeCaptureBudget)
	}
	mcs := s.collideQueries(s.placedDevices(10), 6)
	var scq Scratch
	if _, err := scq.AnalyzeCaptures(mcs, s.param, 1); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		scq.AnalyzeCaptures(mcs, s.param, 1)
	}); got > analyzeCapturesBudget {
		t.Errorf("AnalyzeCaptures: %.1f allocs/op exceeds budget %d", got, analyzeCapturesBudget)
	}
	dec := NewDecoder(987e3)
	if err := dec.Add(mc.Reference()); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		dec.TryDecode()
	}); got > tryDecodeBudget {
		t.Errorf("TryDecode: %.1f allocs/op exceeds budget %d", got, tryDecodeBudget)
	}
}

// BenchmarkAnalyzeCapture measures the single-capture analysis: the
// pooled steady state against the allocating throwaway-scratch entry
// point, on the seed-811, 12-device scene.
func BenchmarkAnalyzeCapture(b *testing.B) {
	s := newTestScene(b, 811)
	mc := s.collide(s.placedDevices(12))
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeCapture(mc, s.param); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var sc Scratch
		if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecoderAdd measures combining one more capture into a
// target's accumulator — the sweep that is most of DecodeAll. Same
// fixture as BenchmarkTryDecode.
func BenchmarkDecoderAdd(b *testing.B) {
	caps, freqs, _, _ := decodeFixture(b, 907, 4, 8)
	dec := NewDecoder(freqs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Add(caps[i%len(caps)].Reference()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTryDecode measures the per-query decode attempt — the other
// half of the §8 hot loop — on the four-device decode fixture: a clean
// target, whose every attempt passes the checksum and parses a frame.
func BenchmarkTryDecode(b *testing.B) { benchTryDecode(b, true) }

// BenchmarkTryDecodeMiss aims between the fixture's devices, where
// every attempt fails — as nearly every attempt does while a decoder
// is still combining.
func BenchmarkTryDecodeMiss(b *testing.B) { benchTryDecode(b, false) }

func benchTryDecode(b *testing.B, hit bool) {
	caps, freqs, _, _ := decodeFixture(b, 907, 4, 8)
	target := 987e3
	if hit {
		target = freqs[0]
	}
	dec := NewDecoder(target)
	if err := dec.Add(caps[0].Reference()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.TryDecode(); err != nil && !errors.Is(err, ErrNeedMoreCollisions) {
			b.Fatal(err)
		}
	}
}
