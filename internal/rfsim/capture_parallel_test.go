package rfsim

import (
	"fmt"
	"math/rand"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// parallelScene builds a dense collision: n transponders with spread
// CFOs, random phases and staggered start samples, seen by a pair
// array, with reflectors so the channel computation is non-trivial.
func parallelScene(tb testing.TB, seed int64, n int) (CaptureConfig, Array, []Transmission) {
	tb.Helper()
	cfg := testConfig()
	cfg.Reflectors = []Reflector{
		{Point: geom.V(0, -8, 0), Coeff: -0.4},
	}
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	rng := rand.New(rand.NewSource(seed))
	txs := make([]Transmission, 0, n)
	for i := 0; i < n; i++ {
		f := &phy.Frame{
			Programmable: rng.Uint64() & (1<<phy.ProgrammableBits - 1),
			Agency:       uint16(i + 1),
			Serial:       uint64(1000 + i),
			Factory:      rng.Uint64(),
			Reserved:     rng.Uint64() & (1<<phy.ReservedBits - 1),
		}
		env, err := phy.ModulateFrame(f, cfg.SampleRate)
		if err != nil {
			tb.Fatal(err)
		}
		txs = append(txs, Transmission{
			Envelope:    env,
			CFO:         50e3 + float64(i)*17e3,
			Phase:       rng.Float64() * 6.28,
			Amplitude:   0.5 + rng.Float64(),
			Pos:         geom.V(-20+rng.Float64()*40, 2+rng.Float64()*8, 0),
			StartSample: rng.Intn(32),
		})
	}
	return cfg, arr, txs
}

// TestCaptureParallelMatchesSerial: the synthesis fan-out must be
// bit-identical to the serial path for every worker count, noise
// included (it consumes the caller's RNG serially, so the same seed
// must yield the same stream).
func TestCaptureParallelMatchesSerial(t *testing.T) {
	for _, withNoise := range []bool{false, true} {
		cfg, arr, txs := parallelScene(t, 311, 24)
		if withNoise {
			cfg.NoiseSigma = 1e-5
		}
		serial, err := Capture(cfg, arr, txs, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			pcfg := cfg
			pcfg.Workers = workers
			got, err := Capture(pcfg, arr, txs, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			for a := range serial.Antennas {
				for s := range serial.Antennas[a] {
					if got.Antennas[a][s] != serial.Antennas[a][s] {
						t.Fatalf("noise=%v workers=%d: antenna %d sample %d: %v != %v",
							withNoise, workers, a, s, got.Antennas[a][s], serial.Antennas[a][s])
					}
				}
			}
		}
	}
}

// TestCaptureParallelEmptyScene: zero transmissions must still produce
// a (noise-only) capture through the parallel path.
func TestCaptureParallelEmptyScene(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 8
	cfg.NoiseSigma = 1e-5
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	mc, err := Capture(cfg, arr, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Antennas) != 2 || len(mc.Antennas[0]) != cfg.NumSamples {
		t.Fatalf("capture shape %dx%d", len(mc.Antennas), len(mc.Antennas[0]))
	}
}

// BenchmarkCapture measures synthesis cost for a dense collision at
// several worker counts — the speedup the city harness sees, since
// rfsim.Capture dominates its profile.
func BenchmarkCapture(b *testing.B) {
	cfg, arr, txs := parallelScene(b, 77, 48)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			wcfg := cfg
			wcfg.Workers = workers
			rng := rand.New(rand.NewSource(5))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Capture(wcfg, arr, txs, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
