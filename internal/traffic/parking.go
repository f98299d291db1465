package traffic

import (
	"fmt"

	"caraoke/internal/geom"
)

// ParkingStrip is a row of street-parking spots along a road edge —
// the setting of the paper's localization evaluation (Fig 13: spots 1
// through 6 between two street lamps).
type ParkingStrip struct {
	Origin     geom.Vec3 // center of spot 1
	Dir        geom.Vec3 // along-street unit direction
	SpotLength float64   // meters per spot (a US parallel spot is ≈6 m)
	NumSpots   int

	occupied []bool
}

// NewParkingStrip creates a strip of n spots starting at origin.
func NewParkingStrip(origin, dir geom.Vec3, spotLength float64, n int) (*ParkingStrip, error) {
	if n <= 0 || spotLength <= 0 {
		return nil, fmt.Errorf("traffic: strip needs positive spots and length")
	}
	if dir.Norm() == 0 {
		return nil, fmt.Errorf("traffic: zero strip direction")
	}
	return &ParkingStrip{
		Origin:     origin,
		Dir:        dir.Unit(),
		SpotLength: spotLength,
		NumSpots:   n,
		occupied:   make([]bool, n),
	}, nil
}

// SpotCenter returns the road-plane center of spot i (0-based).
func (ps *ParkingStrip) SpotCenter(i int) geom.Vec3 {
	return ps.Origin.Add(ps.Dir.Scale(float64(i) * ps.SpotLength))
}

// Park marks spot i occupied. It fails on occupied or out-of-range
// spots.
func (ps *ParkingStrip) Park(i int) error {
	if i < 0 || i >= ps.NumSpots {
		return fmt.Errorf("traffic: spot %d out of range [0,%d)", i, ps.NumSpots)
	}
	if ps.occupied[i] {
		return fmt.Errorf("traffic: spot %d already occupied", i)
	}
	ps.occupied[i] = true
	return nil
}

// NearestSpot returns the index of the spot whose center is closest to
// the road-plane point p, and the distance to it. Caraoke's smart
// parking maps a localized car to a spot this way: 4° of AoA error is
// "sufficient for detecting occupied/available parking spots".
func (ps *ParkingStrip) NearestSpot(p geom.Vec2) (int, float64) {
	best, bestD := 0, -1.0
	for i := 0; i < ps.NumSpots; i++ {
		c := ps.SpotCenter(i)
		d := p.Dist(geom.P(c.X, c.Y))
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
