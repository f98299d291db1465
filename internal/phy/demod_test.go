package phy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func scratchTestFrame(rng *rand.Rand) *Frame {
	return &Frame{
		Programmable: rng.Uint64() & (1<<ProgrammableBits - 1),
		Agency:       uint16(rng.Uint32()),
		Serial:       rng.Uint64() & (1<<SerialBits - 1),
		Factory:      rng.Uint64(),
		Reserved:     rng.Uint64() & (1<<ReservedBits - 1),
	}
}

// TestDemodScratchMatchesDemodulateFrame: same envelope in, same frame
// (or same sentinel classification) out as the allocating chain.
func TestDemodScratchMatchesDemodulateFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ds DemodScratch
	const rate = 4e6
	for trial := 0; trial < 10; trial++ {
		f := scratchTestFrame(rng)
		env, err := ModulateFrame(f, rate)
		if err != nil {
			t.Fatalf("modulate: %v", err)
		}
		// Perturb some trials: additive noise keeps decisions identical
		// between the two chains as long as both see the same samples.
		if trial%2 == 1 {
			for i := range env {
				env[i] += 0.3 * rng.NormFloat64()
			}
		}
		want, wantErr := DemodulateFrame(env, rate)
		got, gotErr := ds.DemodulateFrame(env, rate)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: oracle err %v, scratch err %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(wantErr, ErrBadCRC) && !errors.Is(wantErr, ErrBadPreamble) {
				t.Fatalf("trial %d: unexpected oracle error %v", trial, wantErr)
			}
			if !errors.Is(gotErr, ErrBadCRC) && !errors.Is(gotErr, ErrBadPreamble) {
				t.Fatalf("trial %d: scratch error %v not a demod sentinel", trial, gotErr)
			}
			continue
		}
		if got != *want {
			t.Fatalf("trial %d: scratch frame %+v, oracle %+v", trial, got, *want)
		}
	}
}

// TestDemodScratchSentinels pins the error surface the decoder's hot
// path depends on.
func TestDemodScratchSentinels(t *testing.T) {
	var ds DemodScratch
	if _, err := ds.DemodulateFrame(make([]float64, 16), 4e6); !errors.Is(err, ErrShortEnvelope) {
		t.Errorf("short envelope: got %v, want ErrShortEnvelope", err)
	}
	if _, err := ds.DemodulateFrame(make([]float64, 16), 1); !errors.Is(err, ErrLowSampleRate) {
		t.Errorf("low rate: got %v, want ErrLowSampleRate", err)
	}
	env, err := ModulateFrame(scratchTestFrame(rand.New(rand.NewSource(1))), 4e6)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload: CRC must fail with the bare sentinel.
	spc := SamplesPerChip(4e6)
	for i := 0; i < 4*ChipsPerBit*spc; i++ {
		env[(PreambleBits+20)*ChipsPerBit*spc+i] = 1 - env[(PreambleBits+20)*ChipsPerBit*spc+i]
	}
	if _, err := ds.DemodulateFrame(env, 4e6); err != ErrBadCRC {
		t.Errorf("corrupted payload: got %v, want bare ErrBadCRC", err)
	}
}

// TestDemodScratchSteadyStateAllocs: repeated demodulation through one
// scratch allocates nothing, success or CRC failure alike.
func TestDemodScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	good, err := ModulateFrame(scratchTestFrame(rng), 4e6)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), good...)
	for i := range bad[:len(bad)/2] {
		bad[i] = 1 - bad[i]
	}
	var ds DemodScratch
	ds.DemodulateFrame(good, 4e6)
	for name, env := range map[string][]float64{"success": good, "crc-fail": bad} {
		env := env
		allocs := testing.AllocsPerRun(20, func() {
			ds.DemodulateFrame(env, 4e6)
		})
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestDemodulateChipsMatchesSoftOracle: on chip energies of every kind
// the combiner produces — clean, noisy, payload and preamble both
// corrupt, tied chips, NaNs — DemodulateChips returns what the
// allocating DemodulateSoft → DecodeFrame chain returns: the same frame,
// or the same sentinel (bare), the preamble's taking precedence.
func TestDemodulateChipsMatchesSoftOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	counts := map[error]int{}
	for trial := 0; trial < 400; trial++ {
		bits, err := scratchTestFrame(rng).Encode()
		if err != nil {
			t.Fatal(err)
		}
		energy := make([]float64, FrameChips, FrameChips+3)
		for i, c := range ManchesterEncode(bits) {
			energy[i] = 4 * float64(c)
		}
		// Noise from none to enough to flip a few dozen bits, sometimes
		// confined to the payload so the preamble check passes.
		sigma := []float64{0, 1, 2, 4}[trial%4]
		from := 0
		if trial%3 == 0 {
			from = PreambleBits * ChipsPerBit
		}
		for i := from; i < len(energy); i++ {
			energy[i] += sigma * rng.NormFloat64()
		}
		switch trial % 5 {
		case 1: // a tied pair decides 1
			b := rng.Intn(FrameBits)
			energy[2*b+1] = energy[2*b]
		case 2: // a NaN chip decides 0
			energy[rng.Intn(FrameChips)] = math.NaN()
		case 3: // chips past the frame are ignored
			energy = append(energy, 9, -9, 9)
		}

		soft, err := DemodulateSoft(energy[:FrameChips])
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := DecodeFrame(soft)
		got, gotErr := DemodulateChips(energy)
		switch {
		case wantErr == nil:
			if gotErr != nil || got != *want {
				t.Fatalf("trial %d: got (%+v, %v), oracle %+v", trial, got, gotErr, *want)
			}
			counts[nil]++
		case errors.Is(wantErr, ErrBadPreamble):
			if gotErr != ErrBadPreamble {
				t.Fatalf("trial %d: got %v, oracle %v", trial, gotErr, wantErr)
			}
			counts[ErrBadPreamble]++
		case errors.Is(wantErr, ErrBadCRC):
			if gotErr != ErrBadCRC {
				t.Fatalf("trial %d: got %v, oracle %v", trial, gotErr, wantErr)
			}
			counts[ErrBadCRC]++
		default:
			t.Fatalf("trial %d: unexpected oracle error %v", trial, wantErr)
		}
	}
	for _, kind := range []error{nil, ErrBadPreamble, ErrBadCRC} {
		if counts[kind] < 20 {
			t.Errorf("only %d of the trials ended in %v; the comparison does not cover it", counts[kind], kind)
		}
	}

	if _, err := DemodulateChips(make([]float64, FrameChips-1)); err != ErrShortEnvelope {
		t.Errorf("one chip short of a frame: got %v, want bare ErrShortEnvelope", err)
	}
	energy := make([]float64, FrameChips)
	if allocs := testing.AllocsPerRun(20, func() { DemodulateChips(energy) }); allocs != 0 {
		t.Errorf("DemodulateChips allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDemodulateChips times the decision half on a frame that
// parses ("hit"), one whose payload fails the checksum ("crc-miss") and
// one that fails at the preamble ("preamble-miss").
func BenchmarkDemodulateChips(b *testing.B) {
	bits, err := scratchTestFrame(rand.New(rand.NewSource(37))).Encode()
	if err != nil {
		b.Fatal(err)
	}
	hit := make([]float64, FrameChips)
	for i, c := range ManchesterEncode(bits) {
		hit[i] = float64(c)
	}
	flipped := func(bit int) []float64 {
		e := append([]float64(nil), hit...)
		e[2*bit], e[2*bit+1] = e[2*bit+1], e[2*bit]
		return e
	}
	for _, tc := range []struct {
		name   string
		energy []float64
	}{{"hit", hit}, {"crc-miss", flipped(PreambleBits + 100)}, {"preamble-miss", flipped(3)}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DemodulateChips(tc.energy)
			}
		})
	}
}
