package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/transponder"
)

// sicDigest is the FNV-1a hash of what TestSICDigest decides — rounds,
// ids and query counts. It was split out of one hash that also held the
// CFO bits, pinned on the commit before DecodeWithSIC's per-round decode
// became a replay through DecodeAll, and recorded on 4c8a9f8, the last
// commit whose simulator stepped an oscillator per sample. If it moves,
// a round decoded a different id, needed a different number of
// collisions, or the sweep stopped at another round: find the scene, do
// not re-pin.
const sicDigest = 0xb706f099f7910997

// sicCFODigest is the FNV-1a hash of the decoded entries' CFO bits. It
// was re-pinned when the cancellation came to subtract the decoded
// frame's rfsim.Wave instead of stepping its own oscillator, which it
// renormalized every 1024 samples (it was 0xad9dba508ec3b0c4): the
// residuals, and so the later rounds' CFOs, moved by rounding alone,
// while sicDigest held. It was re-pinned again from 0xd43e5028e6619fcc
// when AnalyzeCapture, which finds each round's targets, came to refine
// a spike from its transform bins (dsp.RefineFromBins) instead of two
// Goertzel walks: the CFOs moved by rounding alone, sicDigest held. It
// may move with a rounding change to the samples or to the refinement —
// a change that means to move the synthesized, cancelled or refined
// bits re-pins it while sicDigest holds.
const sicCFODigest = 0xdf39af17f93e773e

// nearFarPair places a strong transponder close to the pole and a weak
// one far from it, 15 dB under: the weak spike hides in the strong
// device's data floor until the strong signal is cancelled.
func nearFarPair(s *testScene) []*transponder.Device {
	devs := s.placedDevices(2)
	devs[0].CarrierHz = phy.BandLow + 300e3
	devs[1].CarrierHz = phy.BandLow + 800e3
	devs[0].Pos = geom.V(5, -4, 0) // close and strong
	devs[1].Pos = geom.V(28, 3, 0) // far and weak
	devs[0].TxAmplitude = 2.0      // widen the gap further
	devs[1].TxAmplitude = 0.5
	return devs
}

// TestSICDigest hashes what DecodeWithSIC reports over the near-far pair
// and seeded 4/8/12-device collisions: its round count and, in CFO
// order, every decoded entry's id and query count into one hash, held to
// sicDigest, and the entries' CFOs, to the bit, into another, held to
// sicCFODigest.
func TestSICDigest(t *testing.T) {
	decoded, cfoBits := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	sweep := func(s *testScene, devs []*transponder.Device, rounds, queries int) {
		res, err := DecodeWithSIC(s.collisionSource(devs), s.param, rounds, queries)
		if err != nil {
			t.Fatal(err)
		}
		put(decoded, uint64(res.Rounds))
		put(decoded, uint64(len(res.Decoded)))
		cfos := make([]float64, 0, len(res.Decoded))
		for f := range res.Decoded {
			cfos = append(cfos, f)
		}
		slices.Sort(cfos)
		for _, f := range cfos {
			d := res.Decoded[f]
			put(cfoBits, math.Float64bits(f))
			put(decoded, d.Frame.ID())
			put(decoded, uint64(d.Queries))
		}
	}
	s := newTestScene(t, 802)
	sweep(s, nearFarPair(s), 4, 60)
	for _, m := range []int{4, 8, 12} {
		for seed := int64(0); seed < 2; seed++ {
			s := newTestScene(t, 9500+10*int64(m)+seed)
			sweep(s, s.placedDevices(m), m+2, 40)
		}
	}
	if got := decoded.Sum64(); got != sicDigest {
		t.Errorf("SIC digest %#x, want %#x: a decode or a round moved", got, uint64(sicDigest))
	}
	if got := cfoBits.Sum64(); got != sicCFODigest {
		t.Errorf("SIC CFO digest %#x, want %#x: a decoded CFO moved by rounding", got, uint64(sicCFODigest))
	}
}
