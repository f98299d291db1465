package world

import (
	"testing"
	"time"
)

// TestStepWrapLargeStep: a step that carries a vehicle more than one
// lap past the end of its street must still wrap into [0, length) —
// the single-subtraction wrap left s out of range and broke
// vehiclePos (regression).
func TestStepWrapLargeStep(t *testing.T) {
	w := New(1, 1, 200, 50, 0, 0, 9)
	// One intersection ⇒ streets are 2·margin = 120 m; at 8–14 m/s a
	// 60 s step is 4–7 laps.
	w.step(60 * time.Second)
	for i, v := range w.vehicles {
		l := w.streets[v.street].length
		if v.s < 0 || v.s >= l {
			t.Fatalf("vehicle %d at s=%g outside [0,%g) after a multi-lap step", i, v.s, l)
		}
	}
	// And the positions the claim step reads stay on the map.
	devs := w.Devices()
	if len(devs) != len(w.vehicles) {
		t.Fatalf("%d devices for %d equipped vehicles", len(devs), len(w.vehicles))
	}
	for _, d := range devs {
		if d.Pos.X < -margin || d.Pos.X >= margin || d.Pos.Y < -margin || d.Pos.Y >= margin {
			t.Fatalf("device %#x at %v, off the 120 m map", d.ID(), d.Pos)
		}
	}
}
