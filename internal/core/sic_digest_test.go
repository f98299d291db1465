package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/transponder"
)

// sicDigest is the FNV-1a hash TestSICDigest computes, recorded on the
// commit before DecodeWithSIC's per-round decode became a replay through
// DecodeAll. If it moves, a round decoded a different id, needed a
// different number of collisions, or the sweep stopped at another round:
// find the scene, do not re-pin.
const sicDigest = 0x175e3ebe33f9212

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

// TestSICDigest hashes what DecodeWithSIC reports — its round count and,
// in CFO order, every decoded entry's CFO (to the bit), id and query
// count — over the near-far pair and seeded 4/8/12-device collisions,
// and compares against the pinned constant.
func TestSICDigest(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	sweep := func(s *testScene, devs []*transponder.Device, rounds, queries int) {
		res, err := DecodeWithSIC(s.collisionSource(devs), s.param, rounds, queries)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(res.Rounds))
		put(uint64(len(res.Decoded)))
		cfos := make([]float64, 0, len(res.Decoded))
		for f := range res.Decoded {
			cfos = append(cfos, f)
		}
		slices.Sort(cfos)
		for _, f := range cfos {
			d := res.Decoded[f]
			put(math.Float64bits(f))
			put(d.Frame.ID())
			put(uint64(d.Queries))
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
	if got := h.Sum64(); got != sicDigest {
		t.Errorf("SIC digest %#x, want %#x: a decode or a round moved", got, uint64(sicDigest))
	}
}
