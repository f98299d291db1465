// Package world is the city's ground truth: streets, vehicle kinematics
// and parked cars. The deployed system (internal/city) sees snapshots.
package world

import (
	"math"
	"math/rand"
	"time"

	"caraoke/internal/geom"
	"caraoke/internal/transponder"
)

const (
	// margin is how far (meters) each street extends beyond its
	// outermost intersection before wrapping; vehicles leaving one end
	// re-enter the other, keeping the fleet size constant.
	margin = 60
	// tick is the vehicle-kinematics step.
	tick = 100 * time.Millisecond
)

// street is one road of the grid. Vehicles wrap at length; world
// coordinate along the street is s − margin.
type street struct {
	horizontal bool
	fixed      float64 // y (horizontal) or x (vertical)
	length     float64
}

// vehicle is one circulating car.
type vehicle struct {
	dev    *transponder.Device // nil when unequipped
	street int
	s      float64 // position along the street, wraps at length
	speed  float64 // m/s, constant per vehicle
}

// World is one city's truth: streets, vehicles and parked cars.
type World struct {
	streets  []street
	vehicles []*vehicle
	parked   []*transponder.Device
}

// New lays out a cols × rows grid of intersections blockM meters apart,
// scatters vehicles over its streets (a fraction unequipped without a
// transponder) and parks cars curbside at the origin, all from seed.
func New(cols, rows int, blockM float64, vehicles, parked int, unequipped float64, seed int64) *World {
	w := &World{}
	hLen := float64(cols-1)*blockM + 2*margin
	vLen := float64(rows-1)*blockM + 2*margin
	for row := 0; row < rows; row++ {
		w.streets = append(w.streets, street{horizontal: true, fixed: float64(row) * blockM, length: hLen})
	}
	for col := 0; col < cols; col++ {
		w.streets = append(w.streets, street{horizontal: false, fixed: float64(col) * blockM, length: vLen})
	}

	rng := rand.New(rand.NewSource(seed))
	pop := transponder.DefaultPopulationParams()
	var serial uint64 // low bits of the next tag serial, counting from 1
	for v := 0; v < vehicles; v++ {
		veh := &vehicle{
			street: rng.Intn(len(w.streets)),
			speed:  8 + 6*rng.Float64(), // 8–14 m/s urban free flow
		}
		veh.s = rng.Float64() * w.streets[veh.street].length
		if rng.Float64() >= unequipped {
			serial++
			veh.dev = transponder.NewRandomDevice(pop, transponder.DenseSerial(rng, serial), geom.Vec3{}, rng)
		}
		w.vehicles = append(w.vehicles, veh)
	}
	for i := 0; i < parked; i++ {
		// Curbside rows of five, 6 m pitch, just inside reader 1's zone.
		pos := geom.V(-22+6*float64(i%5), 8+3.5*float64(i/5), 0)
		serial++
		w.parked = append(w.parked, transponder.NewRandomDevice(pop, transponder.DenseSerial(rng, serial), pos, rng))
	}
	return w
}

// Advance moves the vehicles forward by d, in whole kinematics ticks.
func (w *World) Advance(d time.Duration) {
	for t := 0; t < int(d/tick); t++ {
		w.step(tick)
	}
}

// step advances vehicle kinematics by dt.
func (w *World) step(dt time.Duration) {
	sec := dt.Seconds()
	for _, v := range w.vehicles {
		v.s += v.speed * sec
		if l := w.streets[v.street].length; v.s >= l {
			// A single subtraction only unwinds one lap; a large step
			// (or a short street) can overrun by several, leaving s out
			// of range and vehiclePos off the map. Mod is exact for the
			// common one-lap case (bit-identical to the subtraction)
			// and correct for any step size.
			v.s = math.Mod(v.s, l)
		}
	}
}

// vehiclePos maps a vehicle's 1-D street position to the road plane
// (right-hand lane, 2 m from the centerline).
func (w *World) vehiclePos(v *vehicle) geom.Vec3 {
	st, x := w.streets[v.street], v.s-margin
	if st.horizontal {
		return geom.V(x, st.fixed-2, 0)
	}
	return geom.V(st.fixed+2, x, 0)
}

// Devices refreshes vehicle positions and returns every transponder in
// claim-priority order: equipped vehicles, then parked cars in spot
// order. They are the world's own; readers get snapshots of them.
func (w *World) Devices() []*transponder.Device {
	devs := make([]*transponder.Device, 0, len(w.vehicles)+len(w.parked))
	for _, v := range w.vehicles {
		if v.dev != nil {
			v.dev.Pos = w.vehiclePos(v)
			devs = append(devs, v.dev)
		}
	}
	return append(devs, w.parked...)
}

// Parked returns the parked cars' transponders in spot order.
func (w *World) Parked() []*transponder.Device { return w.parked }

// Speeds maps every transponder id to its car's true speed in m/s: a
// vehicle's constant speed, 0 for a parked car.
func (w *World) Speeds() map[uint64]float64 {
	out := make(map[uint64]float64, len(w.vehicles)+len(w.parked))
	for _, v := range w.vehicles {
		if v.dev != nil {
			out[v.dev.ID()] = v.speed
		}
	}
	for _, d := range w.parked {
		out[d.ID()] = 0
	}
	return out
}
