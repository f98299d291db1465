package power

import (
	"math"
	"testing"
	"time"
)

func TestAveragePowerMatchesPaper(t *testing.T) {
	// §12.5: one 10 ms measurement per second averages ≈9 mW.
	d := DutyCycle{Period: time.Second, ActiveTime: 10 * time.Millisecond}
	avg, err := AveragePower(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-0.009) > 0.0005 {
		t.Errorf("average power %.4f W, paper quotes ≈9 mW", avg)
	}
}

func TestSolarMarginMatchesPaper(t *testing.T) {
	// §12.5: harvest is ≈56× the average draw.
	d := DutyCycle{Period: time.Second, ActiveTime: 10 * time.Millisecond}
	margin, err := SolarMargin(d)
	if err != nil {
		t.Fatal(err)
	}
	if margin < 50 || margin > 60 {
		t.Errorf("solar margin %.1f×, paper quotes ≈56×", margin)
	}
}

func TestAveragePowerEdges(t *testing.T) {
	alwaysOn := DutyCycle{Period: time.Second, ActiveTime: time.Second}
	avg, err := AveragePower(alwaysOn)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-ActivePowerW) > 1e-9 {
		t.Errorf("always-on power %g, want %g", avg, ActivePowerW)
	}
	alwaysOff := DutyCycle{Period: time.Second}
	avg, err = AveragePower(alwaysOff)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-SleepPowerW) > 1e-12 {
		t.Errorf("always-sleep power %g, want %g", avg, SleepPowerW)
	}
	if _, err := AveragePower(DutyCycle{}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := AveragePower(DutyCycle{Period: time.Second, ActiveTime: 2 * time.Second}); err == nil {
		t.Error("active longer than period accepted")
	}
}

func TestBatterySaturation(t *testing.T) {
	b := NewBattery(1) // 1 Wh = 3600 J
	if soc := b.Step(1000, time.Hour); soc != 1 {
		t.Errorf("overcharge SoC = %g", soc)
	}
	if soc := b.Step(-10000, time.Hour); soc != 0 || !b.Empty() {
		t.Errorf("deep discharge SoC = %g empty=%v", soc, b.Empty())
	}
}

func TestWeekOnBatteryMatchesPaper(t *testing.T) {
	// §12.5: "the energy harvested from solar during 3 hours can be
	// stored in a rechargeable battery and run the device for a week
	// regardless of weather". 3 h × 500 mW = 1.5 Wh.
	// 1.5 Wh / 9 mW = 166 h ≈ 6.9 days — the paper's "a week".
	harvested := SolarPowerW * 3 // watt-hours
	b := NewBattery(harvested)
	d := DutyCycle{Period: time.Second, ActiveTime: 10 * time.Millisecond}
	noSun := func(time.Time) float64 { return 0 }
	start := time.Date(2015, 8, 17, 0, 0, 0, 0, time.UTC)
	res, err := Simulate(b, d, noSun, start, 8*24*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survived {
		t.Error("battery outlived its energy budget (model error)")
	}
	lived := res.FirstDead.Sub(start)
	if lived < 6*24*time.Hour || lived > 8*24*time.Hour {
		t.Errorf("battery lived %v, paper arithmetic gives ≈6.9 days", lived)
	}
}

func TestSimulateDayNightSteadyState(t *testing.T) {
	// With daily sun the battery must not trend downward.
	b := NewBattery(1.5)
	b.ChargeJ = b.CapacityJ / 2
	d := DutyCycle{Period: time.Second, ActiveTime: 10 * time.Millisecond}
	profile := func(t time.Time) float64 { // half-cloudy days, dark nights
		if h := t.Hour(); h >= 7 && h < 19 {
			return SolarPowerW * 0.5
		}
		return 0
	}
	start := time.Date(2015, 8, 17, 0, 0, 0, 0, time.UTC)
	res, err := Simulate(b, d, profile, start, 14*24*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Survived {
		t.Errorf("battery died at %v despite daily harvest", res.FirstDead)
	}
	if b.ChargeJ < b.CapacityJ/2 {
		t.Errorf("charge trending down: %.0f J of %.0f", b.ChargeJ, b.CapacityJ)
	}
}

func TestSimulateContinuousActiveDies(t *testing.T) {
	// Always-active draw (900 mW) exceeds harvest (500 mW): the reader
	// must not survive on solar alone — the reason duty cycling exists.
	b := NewBattery(0.5)
	d := DutyCycle{Period: time.Second, ActiveTime: time.Second}
	profile := func(time.Time) float64 { return SolarPowerW }
	start := time.Date(2015, 8, 17, 0, 0, 0, 0, time.UTC)
	res, err := Simulate(b, d, profile, start, 48*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survived {
		t.Error("always-active reader survived on a 500 mW panel")
	}
	if _, err := Simulate(b, d, profile, start, 0, time.Minute); err == nil {
		t.Error("zero span accepted")
	}
}
