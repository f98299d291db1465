// Package power models the Caraoke reader's energy subsystem (§10,
// §12.5): a solar panel, a rechargeable battery, and a duty-cycled load
// that draws 900 mW in the active mode and 69 µW in sleep. The paper's
// headline arithmetic — 9 mW average at one 10 ms measurement per
// second, 56× below the 500 mW solar budget, about a week of operation
// from a charged battery — falls out of this model.
package power

import (
	"fmt"
	"time"
)

// Prototype measurements from §12.5 (modem excluded, like the paper's).
const (
	ActivePowerW = 0.900 // W, query + receive + processing
	SleepPowerW  = 69e-6 // W, master clock and sleep timer only
	SolarPowerW  = 0.500 // W, 6 cm × 7.5 cm panel in the sun
)

// DutyCycle describes the reader's measurement schedule.
type DutyCycle struct {
	// Period between wake-ups (1 s in the paper's example).
	Period time.Duration
	// ActiveTime per wake-up (≤10 ms; one query takes ~1 ms, and the
	// active window fits at most 10 queries, §10).
	ActiveTime time.Duration
}

// Validate checks the schedule.
func (d DutyCycle) Validate() error {
	if d.Period <= 0 {
		return fmt.Errorf("power: period must be positive")
	}
	if d.ActiveTime < 0 || d.ActiveTime > d.Period {
		return fmt.Errorf("power: active time %v outside [0, %v]", d.ActiveTime, d.Period)
	}
	return nil
}

// AveragePower returns the mean draw of the duty-cycled reader in
// watts.
func AveragePower(d DutyCycle) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	frac := float64(d.ActiveTime) / float64(d.Period)
	return ActivePowerW*frac + SleepPowerW*(1-frac), nil
}

// SolarMargin returns how many times the solar harvest exceeds the
// duty-cycled average draw (the paper quotes ≈56× for one measurement
// per second).
func SolarMargin(d DutyCycle) (float64, error) {
	avg, err := AveragePower(d)
	if err != nil {
		return 0, err
	}
	return SolarPowerW / avg, nil
}

// Battery is a simple energy store.
type Battery struct {
	CapacityJ float64 // full capacity, joules
	ChargeJ   float64 // current charge, joules
}

// NewBattery returns a battery of the given capacity in watt-hours,
// fully charged.
func NewBattery(wattHours float64) *Battery {
	j := wattHours * 3600
	return &Battery{CapacityJ: j, ChargeJ: j}
}

// Step advances the battery by dt under a net power flow (positive =
// charging). Charge saturates at capacity and at zero; it returns the
// state of charge in [0, 1].
func (b *Battery) Step(netW float64, dt time.Duration) float64 {
	b.ChargeJ += netW * dt.Seconds()
	if b.ChargeJ > b.CapacityJ {
		b.ChargeJ = b.CapacityJ
	}
	if b.ChargeJ < 0 {
		b.ChargeJ = 0
	}
	if b.CapacityJ == 0 {
		return 0
	}
	return b.ChargeJ / b.CapacityJ
}

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.ChargeJ <= 0 }

// SolarProfile gives the harvested power at a given time of day.
type SolarProfile func(t time.Time) float64

// SimResult summarizes a battery/solar simulation.
type SimResult struct {
	Survived  bool          // battery never emptied
	FirstDead time.Time     // when the battery first emptied (if !Survived)
	MinSoC    float64       // lowest state of charge seen
	Elapsed   time.Duration // simulated span
}

// Simulate runs the reader's energy balance from start for the given
// span with time step dt, drawing the duty-cycled average and
// harvesting per the profile.
func Simulate(b *Battery, d DutyCycle, profile SolarProfile, start time.Time, span, dt time.Duration) (SimResult, error) {
	avg, err := AveragePower(d)
	if err != nil {
		return SimResult{}, err
	}
	if dt <= 0 || span <= 0 {
		return SimResult{}, fmt.Errorf("power: span and dt must be positive")
	}
	res := SimResult{Survived: true, MinSoC: 1, Elapsed: span}
	for t := time.Duration(0); t < span; t += dt {
		now := start.Add(t)
		soc := b.Step(profile(now)-avg, dt)
		if soc < res.MinSoC {
			res.MinSoC = soc
		}
		if b.Empty() && res.Survived {
			res.Survived = false
			res.FirstDead = now
		}
	}
	return res, nil
}
