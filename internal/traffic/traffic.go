// Package traffic provides the street-level ground truth for Caraoke's
// evaluation scenarios: Poisson car arrivals, a signalized
// intersection with queue build-up and discharge (the workload of the
// paper's Fig 12), car kinematics for the speed experiments (Fig 15),
// and street-parking geometry for the localization experiments
// (Fig 13).
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"caraoke/internal/geom"
	"caraoke/internal/transponder"
)

// Phase is a traffic-light state for one approach.
type Phase int

// Phases.
const (
	Green Phase = iota
	Yellow
	Red
)

// String renders the phase.
func (p Phase) String() string {
	switch p {
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	default:
		return "red"
	}
}

// LightTiming is a two-street signal plan: street 0 gets Green0, both
// get Yellow between switches, street 1 gets Green1. The paper's
// intersection had street C's green ≈3× street A's.
type LightTiming struct {
	Green0, Green1, Yellow time.Duration
}

// Cycle returns the total cycle length.
func (lt LightTiming) Cycle() time.Duration {
	return lt.Green0 + lt.Green1 + 2*lt.Yellow
}

// PhaseAt returns the phase each street sees at time t (measured from
// cycle start).
func (lt LightTiming) PhaseAt(t time.Duration) (street0, street1 Phase) {
	c := lt.Cycle()
	if c <= 0 {
		return Red, Red
	}
	m := t % c
	switch {
	case m < lt.Green0:
		return Green, Red
	case m < lt.Green0+lt.Yellow:
		return Yellow, Red
	case m < lt.Green0+lt.Yellow+lt.Green1:
		return Red, Green
	default:
		return Red, Yellow
	}
}

// Car is a vehicle on an approach: a 1-D position along its street
// (s grows toward the stop line at s=0, then negative past the
// intersection), a current speed, and its transponder.
type Car struct {
	Device  *transponder.Device
	S       float64 // meters to the stop line (positive = approaching)
	V       float64 // m/s, non-negative
	Desired float64 // free-flow speed, m/s
	Street  int     // approach index (0 or 1)
}

// ApproachConfig describes one street feeding the intersection.
type ApproachConfig struct {
	Name        string
	ArrivalRate float64 // cars per second (Poisson)
	SpeedLimit  float64 // m/s
	SpawnAt     float64 // meters before the stop line where cars appear
}

// IntersectionConfig configures the simulation.
type IntersectionConfig struct {
	Approaches [2]ApproachConfig
	Timing     LightTiming
	// TransponderFrac is the fraction of cars carrying a transponder
	// (70–89 % in US deployments, §1). 1 means every car.
	TransponderFrac float64
	// MinGap is the bumper-to-bumper queue spacing in meters.
	MinGap float64
	// Accel and Decel are car acceleration/deceleration magnitudes.
	Accel, Decel float64
}

// DefaultIntersectionConfig resembles the paper's street A / street C
// crossing: C is ten times busier and gets three times the green.
func DefaultIntersectionConfig() IntersectionConfig {
	return IntersectionConfig{
		Approaches: [2]ApproachConfig{
			{Name: "A", ArrivalRate: 0.03, SpeedLimit: 11, SpawnAt: 250},
			{Name: "C", ArrivalRate: 0.30, SpeedLimit: 13, SpawnAt: 250},
		},
		Timing:          LightTiming{Green0: 15 * time.Second, Green1: 45 * time.Second, Yellow: 3 * time.Second},
		TransponderFrac: 1,
		MinGap:          7,
		Accel:           2.0,
		Decel:           3.5,
	}
}

// Intersection is a running two-approach signalized intersection.
type Intersection struct {
	cfg    IntersectionConfig
	cars   []*Car
	now    time.Duration
	rng    *rand.Rand
	serial uint64
	pop    transponder.PopulationParams
}

// NewIntersection creates the simulation.
func NewIntersection(cfg IntersectionConfig, rng *rand.Rand) (*Intersection, error) {
	if cfg.TransponderFrac < 0 || cfg.TransponderFrac > 1 {
		return nil, fmt.Errorf("traffic: transponder fraction %g outside [0,1]", cfg.TransponderFrac)
	}
	if cfg.Timing.Cycle() <= 0 {
		return nil, fmt.Errorf("traffic: light cycle must be positive")
	}
	if cfg.MinGap <= 0 || cfg.Accel <= 0 || cfg.Decel <= 0 {
		return nil, fmt.Errorf("traffic: gap/accel/decel must be positive")
	}
	return &Intersection{
		cfg:    cfg,
		rng:    rng,
		serial: 1,
		pop:    transponder.DefaultPopulationParams(),
	}, nil
}

// Now returns the simulation time.
func (ix *Intersection) Now() time.Duration { return ix.now }

// Step advances the simulation by dt.
func (ix *Intersection) Step(dt time.Duration) {
	sec := dt.Seconds()
	p0, p1 := ix.cfg.Timing.PhaseAt(ix.now)
	phases := [2]Phase{p0, p1}

	// Arrivals.
	for a := 0; a < 2; a++ {
		cfg := ix.cfg.Approaches[a]
		if ix.rng.Float64() < cfg.ArrivalRate*sec {
			car := &Car{
				S:       cfg.SpawnAt,
				V:       cfg.SpeedLimit,
				Desired: cfg.SpeedLimit * (0.9 + 0.2*ix.rng.Float64()),
				Street:  a,
			}
			if ix.rng.Float64() < ix.cfg.TransponderFrac {
				car.Device = transponder.NewRandomDevice(ix.pop, transponder.DenseSerial(ix.rng, ix.serial), geom.Vec3{}, ix.rng)
				ix.serial++
			}
			ix.cars = append(ix.cars, car)
		}
	}

	// Per-approach leader positions for car following.
	for a := 0; a < 2; a++ {
		ix.stepApproach(a, phases[a], sec)
	}

	// Remove cars well past the intersection.
	kept := ix.cars[:0]
	for _, c := range ix.cars {
		if c.S > -60 {
			kept = append(kept, c)
		}
	}
	ix.cars = kept
	ix.now += dt
}

// stepApproach advances all cars on one approach with a simple
// car-following rule: stop behind the leader (or the stop line on red),
// otherwise accelerate toward the desired speed.
func (ix *Intersection) stepApproach(a int, phase Phase, sec float64) {
	// Find, for each car, the nearest car ahead (smaller S, same street).
	for _, c := range ix.cars {
		if c.Street != a {
			continue
		}
		// Target stopping point: red/yellow → the stop line; otherwise
		// none. Cars genuinely inside the intersection continue, but a
		// small negative margin keeps braking-overshoot artifacts (a
		// car halting centimeters past the line) from being treated as
		// a crossing.
		stopAt := math.Inf(-1)
		if phase != Green && c.S > -1.5 {
			stopAt = 0
		}
		// Leader constraint.
		leader := math.Inf(-1)
		for _, o := range ix.cars {
			if o != c && o.Street == a && o.S < c.S && o.S > leader {
				leader = o.S
			}
		}
		if !math.IsInf(leader, -1) {
			// Stop MinGap behind the leader (only matters if the
			// leader is slower/stopped; the speed rule below handles
			// the rest).
			if gapStop := leader + ix.cfg.MinGap; c.S > 0 && gapStop > stopAt {
				stopAt = gapStop
			}
		}
		target := c.Desired
		if !math.IsInf(stopAt, -1) {
			dist := c.S - stopAt
			if dist <= 0.5 {
				target = 0
			} else {
				// Comfortable-braking envelope: v = √(2·a·d).
				if vmax := math.Sqrt(2 * ix.cfg.Decel * dist); vmax < target {
					target = vmax
				}
			}
		}
		if c.V < target {
			c.V = math.Min(target, c.V+ix.cfg.Accel*sec)
		} else {
			c.V = math.Max(target, c.V-ix.cfg.Decel*sec)
		}
		c.S -= c.V * sec
	}
}

// CountNear counts cars on an approach within radius meters of the
// stop line — what a pole-mounted Caraoke reader at the intersection
// sees (its range is ~30 m). Only transponder-equipped cars are
// counted when equippedOnly is set.
func (ix *Intersection) CountNear(street int, radius float64, equippedOnly bool) int {
	n := 0
	for _, c := range ix.cars {
		if c.Street != street {
			continue
		}
		if math.Abs(c.S) > radius {
			continue
		}
		if equippedOnly && c.Device == nil {
			continue
		}
		n++
	}
	return n
}

// DevicesNear returns the transponders within radius of the stop line
// on an approach, positioned on the road plane for capture synthesis:
// approach 0 runs along +x, approach 1 along +y, stop line at origin.
func (ix *Intersection) DevicesNear(street int, radius float64) []*transponder.Device {
	var out []*transponder.Device
	for _, c := range ix.cars {
		if c.Street != street || c.Device == nil || math.Abs(c.S) > radius {
			continue
		}
		if street == 0 {
			c.Device.Pos = geom.V(c.S, -2, 0)
		} else {
			c.Device.Pos = geom.V(2, c.S, 0)
		}
		out = append(out, c.Device)
	}
	return out
}
