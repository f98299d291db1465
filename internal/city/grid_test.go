package city

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"caraoke/internal/transponder"
)

// claimLinear is the pre-index O(readers × vehicles) claim scan, kept
// as the oracle the grid index is tested against (and benchmarked
// over).
func (s *Sim) claimLinear() [][]*transponder.Device {
	devs := s.activeDevices()
	claims := make([][]*transponder.Device, len(s.posts))
	taken := make(map[*transponder.Device]bool)
	for i, p := range s.posts {
		center := p.rd.Center()
		for _, d := range devs {
			if !taken[d] && d.Pos.Dist(center) <= rangeM {
				claims[i] = append(claims[i], d)
				taken[d] = true
			}
		}
	}
	return claims
}

// TestClaimGridMatchesLinear: the spatial index must reproduce the
// linear scan's claim partition exactly — same devices, same readers,
// same within-reader order — across many epochs of a moving fleet and
// several city shapes (including parked cars and unequipped vehicles).
func TestClaimGridMatchesLinear(t *testing.T) {
	shapes := []Config{
		{Readers: 3, Vehicles: 40, Duration: time.Second, Seed: 11},
		{Readers: 8, Vehicles: 150, Parked: 9, Duration: time.Second, Seed: 12},
		{Readers: 13, Vehicles: 400, Parked: 4, Duration: time.Second, Seed: 13, UnequippedFrac: 0.2},
		{Readers: 2, Vehicles: 0, Parked: 7, Duration: time.Second, Seed: 14},
	}
	for ci, cfg := range shapes {
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 6; tick++ {
			s.step(1500 * time.Millisecond)
			grid := s.claimMask(nil)
			linear := s.claimLinear()
			if len(grid) != len(linear) {
				t.Fatalf("shape %d tick %d: %d vs %d readers", ci, tick, len(grid), len(linear))
			}
			for ri := range grid {
				if len(grid[ri]) != len(linear[ri]) {
					t.Fatalf("shape %d tick %d reader %d: grid claims %d devices, linear %d",
						ci, tick, ri+1, len(grid[ri]), len(linear[ri]))
				}
				for di := range grid[ri] {
					if grid[ri][di] != linear[ri][di] {
						t.Fatalf("shape %d tick %d reader %d slot %d: grid %#x, linear %#x",
							ci, tick, ri+1, di, grid[ri][di].ID(), linear[ri][di].ID())
					}
				}
			}
		}
	}
}

// TestCityBatchAndShardsDeterministic: batching uplinks is a wire
// change only — a run with it cranked up must match the default run's
// results exactly.
func TestCityBatchAndShardsDeterministic(t *testing.T) {
	base, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Batch = 4
	batched, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalReports != batched.TotalReports {
		t.Fatalf("report counts diverge: %d vs %d", base.TotalReports, batched.TotalReports)
	}
	if !reflect.DeepEqual(base.PerIntersection, batched.PerIntersection) {
		t.Errorf("batching changed results:\nbase:    %+v\nbatched: %+v",
			base.PerIntersection, batched.PerIntersection)
	}
	if !reflect.DeepEqual(base.Decoded, batched.Decoded) {
		t.Errorf("decoded sets diverge: %v vs %v", base.Decoded, batched.Decoded)
	}
}

// BenchmarkClaim pits the grid index against the linear scan as the
// fleet grows: the linear scan is O(readers × vehicles) per epoch, the
// grid O(vehicles + readers × in-range density), so the gap must widen
// with fleet size.
func BenchmarkClaim(b *testing.B) {
	for _, vehicles := range []int{200, 1000, 4000} {
		s, err := NewSim(Config{Readers: 32, Vehicles: vehicles, Duration: time.Second, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("grid/vehicles=%d", vehicles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.claimMask(nil)
			}
		})
		b.Run(fmt.Sprintf("linear/vehicles=%d", vehicles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.claimLinear()
			}
		})
	}
}
