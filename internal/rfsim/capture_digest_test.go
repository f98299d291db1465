package rfsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// triangleScene builds a dense collision on the reader's geometry: n
// transponders replying with real frames at spread CFOs and random
// phases, seen by TriangleOnPole's three-element array.
func triangleScene(tb testing.TB, seed int64, n int) (CaptureConfig, Array, []Transmission) {
	tb.Helper()
	cfg := testConfig()
	arr, err := TriangleOnPole(geom.V(0, 0, 0), 4, geom.V(1, 0, 0), 60, cfg.Wavelength/2)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	txs := make([]Transmission, 0, n)
	for i := 0; i < n; i++ {
		env, err := phy.ModulateFrame(testFrame(rng, uint16(i+1), uint64(1000+i)), phy.SampleRate)
		if err != nil {
			tb.Fatal(err)
		}
		phase, amp := rng.Float64()*6.28, 0.5+rng.Float64()
		pos := geom.V(-20+rng.Float64()*40, 2+rng.Float64()*8, 0)
		txs = append(txs, reply(env, 50e3+float64(i)*17e3, phase, amp, pos))
	}
	return cfg, arr, txs
}

// captureDigest is the FNV-1a hash TestCaptureDigest computes. It was
// re-pinned when replies became whole frames from sample 0 and the
// scene lost its staggered starts, clipped tails and reflector (it was
// 0xf072a86dcd491ec7); the synthesis of e006c1e, which still took
// starts and clips, hashes the new scene to the same value, so no reply
// a program draws moved a bit. A rewrite of the synthesis loop may
// reorder memory traffic; it may not move a bit of any sample. If it
// moves, an addition changed order: find it, do not re-pin.
const captureDigest = 0xbd3ced9a2f0226ef

// digestScene is the scene TestCaptureDigest hashes: 24 frames on the
// triangle array.
func digestScene(tb testing.TB) (CaptureConfig, Array, []Transmission) {
	return triangleScene(tb, 2411, 24)
}

// TestCaptureDigest hashes math.Float64bits of every sample of seeded
// captures, noiseless and noisy, of digestScene.
func TestCaptureDigest(t *testing.T) {
	cfg, arr, txs := digestScene(t)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, sigma := range []float64{0, 1e-5} {
		cfg.NoiseSigma = sigma
		mc, err := Capture(cfg, arr, txs, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(mc.Antennas)))
		for _, ant := range mc.Antennas {
			put(uint64(len(ant)))
			for _, v := range ant {
				put(math.Float64bits(real(v)))
				put(math.Float64bits(imag(v)))
			}
		}
	}
	if got := h.Sum64(); got != captureDigest {
		t.Errorf("capture digest %#x, want %#x: a synthesized sample moved", got, uint64(captureDigest))
	}
}

// TestCaptureIntoMatchesCapture pins CaptureInto's stream contract on
// digestScene: for every kept prefix of the array, into streams dirtied
// by an earlier call, the kept streams and the caller's RNG end state
// are bit-equal to Capture's on an array of the kept elements alone, so
// a reader that keeps only the reference antenna draws only that
// antenna's noise. Noise goes in antenna order, so the kept streams are
// also bit-equal to the first streams of a full Capture.
func TestCaptureIntoMatchesCapture(t *testing.T) {
	cfg, arr, txs := digestScene(t)
	var mc MultiCapture
	for _, sigma := range []float64{0, 1e-5} {
		cfg.NoiseSigma = sigma
		full, err := Capture(cfg, arr, txs, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		for keep := 1; keep <= len(arr.Elements); keep++ {
			rng := rand.New(rand.NewSource(9))
			want, err := Capture(cfg, Array{Elements: arr.Elements[:keep]}, txs, rng)
			if err != nil {
				t.Fatal(err)
			}
			next := rng.Int63()
			// The first call dirties mc, growing or shrinking it to keep
			// streams; the second reuses them.
			dirty := rand.New(rand.NewSource(int64(keep)))
			if err := CaptureInto(&mc, keep, cfg, arr, txs[:keep], dirty); err != nil {
				t.Fatal(err)
			}
			got := rand.New(rand.NewSource(9))
			if err := CaptureInto(&mc, keep, cfg, arr, txs, got); err != nil {
				t.Fatal(err)
			}
			if len(mc.Antennas) != keep {
				t.Fatalf("sigma %g keep %d: %d streams", sigma, keep, len(mc.Antennas))
			}
			for a, s := range mc.Antennas {
				for i, v := range s {
					if w := want.Antennas[a][i]; !sameBits(v, w) {
						t.Fatalf("sigma %g keep %d: antenna %d sample %d is %v, Capture's on %d elements %v", sigma, keep, a, i, v, keep, w)
					}
					if w := full.Antennas[a][i]; !sameBits(v, w) {
						t.Fatalf("sigma %g keep %d: antenna %d sample %d is %v, a full Capture's %v", sigma, keep, a, i, v, w)
					}
				}
			}
			if got.Int63() != next {
				t.Errorf("sigma %g keep %d: the RNG ends elsewhere than after Capture on %d elements", sigma, keep, keep)
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// captureAllocCeiling is what one Capture may allocate, whatever the
// scene: the MultiCapture, its antenna headers and the one backing array
// the streams are cut from; the channel rows live on the stack. The
// parent (9e18237) read 58 on this test, 8 with the scratch its readers
// carried, and 66a6458 read 4.
const captureAllocCeiling = 3

// TestCaptureAllocBudget holds Capture to its ceiling, and a warmed
// CaptureInto, full or reference-only, to none; the counts do not depend
// on the host, so they gate where a timing cannot.
func TestCaptureAllocBudget(t *testing.T) {
	cfg, arr, txs := triangleScene(t, 77, 24)
	cfg.NoiseSigma = 1e-5
	rng := rand.New(rand.NewSource(5))
	got := testing.AllocsPerRun(20, func() {
		if _, err := Capture(cfg, arr, txs, rng); err != nil {
			t.Fatal(err)
		}
	})
	if got > captureAllocCeiling {
		t.Errorf("Capture allocates %.0f objects per call, ceiling %d", got, captureAllocCeiling)
	}
	for _, keep := range []int{1, len(arr.Elements)} {
		var mc MultiCapture
		got := testing.AllocsPerRun(20, func() { // the warm-up run shapes mc
			if err := CaptureInto(&mc, keep, cfg, arr, txs, rng); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("warmed CaptureInto keeping %d antennas allocates %.0f objects per call", keep, got)
		}
	}
}

// TestCaptureEmptyScene: zero transmissions must still produce a
// (noise-only) capture of the full shape, each stream closed to append.
func TestCaptureEmptyScene(t *testing.T) {
	cfg, arr, _ := triangleScene(t, 1, 0)
	cfg.NoiseSigma = 1e-5
	mc, err := Capture(cfg, arr, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Antennas) != 3 || len(mc.Antennas[0]) != phy.ResponseSamples {
		t.Fatalf("capture shape %dx%d", len(mc.Antennas), len(mc.Antennas[0]))
	}
	// The streams share one backing array; an append must copy, not
	// write into the next antenna.
	if c := cap(mc.Antennas[0]); c != phy.ResponseSamples {
		t.Errorf("antenna 0 has capacity %d beyond its %d samples", c, phy.ResponseSamples)
	}
}

// BenchmarkCapture measures one capture as a reader issues it: the
// triangle array, noise on, at a busy and a saturated intersection.
// txs=N is Capture into fresh streams, as Reader.Query takes it; the
// into rows reuse one MultiCapture, keeping all three antennas (a
// reader's measurement window) or the reference alone (a decode query).
func BenchmarkCapture(b *testing.B) {
	for _, n := range []int{24, 48} {
		cfg, arr, txs := triangleScene(b, 77, n)
		cfg.NoiseSigma = 1e-5
		b.Run(fmt.Sprintf("txs=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Capture(cfg, arr, txs, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, keep := range []int{len(arr.Elements), 1} {
			b.Run(fmt.Sprintf("txs=%d,into,keep=%d", n, keep), func(b *testing.B) {
				rng := rand.New(rand.NewSource(5))
				var mc MultiCapture
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := CaptureInto(&mc, keep, cfg, arr, txs, rng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
