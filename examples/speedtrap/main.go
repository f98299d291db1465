// Speed enforcement (§7, Fig 15 setting): two readers on poles 200 ft
// apart localize a passing car; NTP-disciplined timestamps turn the two
// sightings into a speed, and the decoded id says who to ticket.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"caraoke"
	"caraoke/internal/clock"
	"caraoke/internal/core"
	"caraoke/internal/geom"
)

func main() {
	params := caraoke.DefaultParams()
	rng := rand.New(rand.NewSource(99))
	sep := geom.Feet(200)

	r1, err := caraoke.NewReader(caraoke.ReaderConfig{
		ID: 1, PoleBase: caraoke.V(0, -5, 0), PoleHeight: 4,
		RoadDir: caraoke.V(1, 0, 0), TiltDeg: 60, NoiseSigma: 2e-6})
	if err != nil {
		log.Fatal(err)
	}
	r2, err := caraoke.NewReader(caraoke.ReaderConfig{
		ID: 2, PoleBase: caraoke.V(sep, -5, 0), PoleHeight: 4,
		RoadDir: caraoke.V(1, 0, 0), TiltDeg: 60, NoiseSigma: 2e-6})
	if err != nil {
		log.Fatal(err)
	}

	// NTP-disciplined clocks at each pole.
	base := time.Date(2015, 8, 17, 16, 0, 0, 0, time.UTC)
	c1 := clock.New(300*time.Millisecond, 25, base)
	c2 := clock.New(-150*time.Millisecond, 30, base)
	for i := 0; i < 3; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		clock.Sync(c1, at, rng)
		clock.Sync(c2, at, rng)
	}

	// A car passes at a true speed of 37 mph.
	trueMPH := 37.0
	v := core.MetersPerSecond(trueMPH)
	car := caraoke.NewTransponders(1, 99)[0]

	// Sighting at each pole: the car is beside the pole when queried.
	measure := func(r *caraoke.Reader, c *clock.Clock, trueTime time.Time, x float64) core.Observation {
		car.Pos = caraoke.V(x, -2, 0)
		cap, err := r.Query([]*caraoke.Device{car}, rng)
		if err != nil {
			log.Fatal(err)
		}
		spikes, err := caraoke.Analyze(cap, params)
		if err != nil || len(spikes) == 0 {
			log.Fatalf("no spike at pole %d: %v", r.ID, err)
		}
		// Localization error along the road, bounded per §7.
		xerr := (2*rng.Float64() - 1) * geom.Feet(geom.MaxXError(13, 2, 12))
		return core.Observation{
			Pos:  geom.P(x+xerr, -2),
			Time: c.Now(trueTime),
			Freq: spikes[0].Freq,
		}
	}

	t0 := base.Add(10 * time.Minute)
	t1 := t0.Add(time.Duration(sep / v * float64(time.Second)))
	obs1 := measure(r1, c1, t0, 0)
	obs2 := measure(r2, c2, t1, sep)

	est, err := caraoke.EstimateSpeed(obs1, obs2)
	if err != nil {
		log.Fatal(err)
	}
	mph := core.MPH(est.Speed)
	fmt.Printf("true speed: %.1f mph\nmeasured:  %.1f mph (error %.1f%%)\n",
		trueMPH, mph, 100*(mph-trueMPH)/trueMPH)

	// 35 mph zone: over the limit? Decode the id for the ticket.
	if mph > 35 {
		car.Pos = caraoke.V(sep, -2, 0)
		src := func() ([]complex128, error) {
			c, err := r2.Query([]*caraoke.Device{car}, rng)
			if err != nil {
				return nil, err
			}
			return c.Antennas[0], nil
		}
		dec, err := caraoke.Decode(src, params, obs2.Freq, 50)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("speeding: ticket issued to account %#x\n", dec.Frame.ID())
	}
}
