package collector

import (
	"testing"
	"time"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/telemetry"
)

func TestSpeedServiceCheck(t *testing.T) {
	store := NewStore(100)
	svc := NewSpeedService(store, core.MetersPerSecond(35))
	svc.RegisterReader(1, geom.P(0, 0))
	svc.RegisterReader(2, geom.P(61, 0)) // 200 ft downstream

	// A car at 45 mph covers 61 m in ≈3.03 s.
	v := core.MetersPerSecond(45)
	dt := time.Duration(61 / v * float64(time.Second))
	store.Add(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500e3, DecodedID: 0xBEEF}}})
	store.Add(&telemetry.Report{ReaderID: 2, Seq: 1, Timestamp: at(0).Add(dt),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500.3e3}}})

	viol, speeding, err := svc.Check(500e3, 1e3, time.Minute, at(10))
	if err != nil {
		t.Fatal(err)
	}
	if !speeding {
		t.Errorf("45 mph in a 35 zone not flagged (est %.1f mph)", core.MPH(viol.SpeedMPS))
	}
	if mph := core.MPH(viol.SpeedMPS); mph < 43 || mph > 47 {
		t.Errorf("estimated %.1f mph, want ≈45", mph)
	}
	if viol.From != 1 || viol.To != 2 {
		t.Errorf("reader pair %d→%d", viol.From, viol.To)
	}
	if viol.DecodedID != 0xBEEF {
		t.Errorf("decoded id %#x not propagated", viol.DecodedID)
	}
}

func TestSpeedServiceInsufficientSightings(t *testing.T) {
	store := NewStore(10)
	svc := NewSpeedService(store, 15)
	svc.RegisterReader(1, geom.P(0, 0))
	store.Add(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500e3}}})
	if _, _, err := svc.Check(500e3, 1e3, time.Minute, at(5)); err == nil {
		t.Error("single sighting accepted")
	}
	// A second reader but stale sighting.
	svc.RegisterReader(2, geom.P(61, 0))
	store.Add(&telemetry.Report{ReaderID: 2, Seq: 1, Timestamp: at(1),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500e3}}})
	if _, _, err := svc.Check(500e3, 1e3, time.Second, at(3600)); err == nil {
		t.Error("stale sightings accepted")
	}
	// Unregistered reader sightings don't count.
	store2 := NewStore(10)
	svc2 := NewSpeedService(store2, 15)
	store2.Add(&telemetry.Report{ReaderID: 9, Seq: 1, Timestamp: at(0),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500e3}}})
	store2.Add(&telemetry.Report{ReaderID: 8, Seq: 1, Timestamp: at(1),
		Spikes: []telemetry.SpikeRecord{{FreqHz: 500e3}}})
	if _, _, err := svc2.Check(500e3, 1e3, time.Minute, at(5)); err == nil {
		t.Error("unregistered readers accepted")
	}
}

func TestParkingServiceLifecycle(t *testing.T) {
	p := NewParkingService()
	if err := p.Arrive(3, 0xABC, at(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Arrive(3, 0xDEF, at(1)); err == nil {
		t.Error("double-parking accepted")
	}
	if id, ok := p.Occupied(3); !ok || id != 0xABC {
		t.Errorf("occupancy %v %v", id, ok)
	}
	if spot, ok := p.FindCar(0xABC); !ok || spot != 3 {
		t.Errorf("find-my-car %d %v", spot, ok)
	}
	if _, ok := p.FindCar(0x999); ok {
		t.Error("phantom car found")
	}
	id, dur, err := p.Depart(3, at(3700))
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xABC || dur != 3700*time.Second {
		t.Errorf("billing %#x for %v", id, dur)
	}
	if _, _, err := p.Depart(3, at(3701)); err == nil {
		t.Error("departing an empty spot accepted")
	}
}
