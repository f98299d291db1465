package transponder

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

func TestCFORelativeToReaderLO(t *testing.T) {
	d := New(phy.Frame{Agency: 1, Serial: 2}, 914.9e6, geom.V(0, 0, 0))
	if got := d.CFO(phy.BandLow); math.Abs(got-0.6e6) > 1e-6 {
		t.Errorf("CFO = %g, want 600 kHz", got)
	}
	if got := d.CFO(914.9e6); got != 0 {
		t.Errorf("CFO at own carrier = %g, want 0", got)
	}
}

func TestReplyRandomPhaseAndCachedEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := NewRandomDevice(DefaultPopulationParams(), 7, geom.V(3, 4, 0), rng)
	r1, err := d.Reply(phy.BandLow, 4e6, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Reply(phy.BandLow, 4e6, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Phase == r2.Phase {
		t.Error("two replies share the same oscillator phase")
	}
	if &r1.Envelope[0] != &r2.Envelope[0] {
		t.Error("envelope not cached between replies")
	}
	if len(r1.Envelope) != phy.ResponseSamples {
		t.Errorf("envelope %d samples, want %d", len(r1.Envelope), phy.ResponseSamples)
	}
	if r1.CFO != d.CFO(phy.BandLow) {
		t.Errorf("reply CFO %g, device CFO %g", r1.CFO, d.CFO(phy.BandLow))
	}
	// The envelope exists at the front end's rate only: any other is
	// refused before the battery is charged.
	left := d.RepliesLeft
	if _, err := d.Reply(phy.BandLow, 8e6, 0, rng); !errors.Is(err, phy.ErrSampleRate) {
		t.Errorf("8 MHz reply: got %v, want phy.ErrSampleRate", err)
	}
	if d.RepliesLeft != left {
		t.Errorf("refused reply charged the battery: %d -> %d", left, d.RepliesLeft)
	}
}

func TestBatteryDepletion(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	d := NewRandomDevice(DefaultPopulationParams(), 8, geom.V(0, 0, 0), rng)
	d.RepliesLeft = 2
	for i := 0; i < 2; i++ {
		if _, err := d.Reply(phy.BandLow, 4e6, 0, rng); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	if d.Alive() {
		t.Error("device alive after exhausting battery")
	}
	if _, err := d.Reply(phy.BandLow, 4e6, 0, rng); err == nil {
		t.Error("dead device replied")
	}
	if d.Triggered(1) {
		t.Error("dead device triggered")
	}
}

func TestTriggeredRange(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	lambda := geom.Wavelength(phy.NominalCarrier)
	d := NewRandomDevice(DefaultPopulationParams(), 9, geom.V(0, 0, 0), rng)
	reader := func(dist float64) geom.Vec3 { return geom.V(dist, 0, 0) }
	// §9 footnote 13: reader range ≈ 100 feet (30.5 m).
	if !d.TriggeredFrom(reader(25), 1.0, lambda) {
		t.Error("not triggered at 25 m")
	}
	if d.TriggeredFrom(reader(45), 1.0, lambda) {
		t.Error("triggered at 45 m (beyond the ~30 m range)")
	}
	// Co-located query always triggers a live device.
	if !d.TriggeredFrom(d.Pos, 1.0, lambda) {
		t.Error("not triggered at zero distance")
	}
}

func TestSampleCarrierStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	p := DefaultPopulationParams()
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := SampleCarrier(p, rng)
		if f < p.BandLow || f > p.BandHigh {
			t.Fatalf("carrier %g outside band", f)
		}
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-CarrierMean) > 0.02e6 {
		t.Errorf("population mean %g, want ≈%g (footnote 7)", mean, CarrierMean)
	}
	// Clamping trims the tails slightly; allow ±10 %.
	if math.Abs(std-CarrierSigma) > 0.1*CarrierSigma {
		t.Errorf("population std %g, want ≈%g (footnote 7)", std, CarrierSigma)
	}
}

func TestNewPopulationUniqueIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	devs := NewPopulation(DefaultPopulationParams(), 155, 1000, rng)
	if len(devs) != 155 {
		t.Fatalf("population size %d", len(devs))
	}
	seen := make(map[uint64]bool)
	for _, d := range devs {
		if seen[d.ID()] {
			t.Fatalf("duplicate id %#x", d.ID())
		}
		seen[d.ID()] = true
		if err := d.Frame.Validate(); err != nil {
			t.Fatalf("invalid generated frame: %v", err)
		}
	}
}

func TestPopulationFramesRoundTrip(t *testing.T) {
	// Generated frames must encode/decode cleanly (dense payloads
	// within field widths).
	rng := rand.New(rand.NewSource(106))
	var ds phy.DemodScratch
	for _, d := range NewPopulation(DefaultPopulationParams(), 20, 5000, rng) {
		env, err := phy.ModulateFrame(&d.Frame, 4e6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.DemodulateFrame(env, 4e6)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != d.ID() {
			t.Fatalf("id mismatch after round trip")
		}
	}
}
