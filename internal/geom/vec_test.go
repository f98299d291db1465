package geom

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Norm(); !almostEq(got, math.Sqrt(14), 1e-12) {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{3, 0, 4}).Unit(); !almostEq(got.Norm(), 1, 1e-12) {
		t.Errorf("Unit norm = %v", got.Norm())
	}
}

func TestUnitPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Vec3{}.Unit()
}

func TestVec2Dist(t *testing.T) {
	if got := (Vec2{0, 0}).Dist(Vec2{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Errorf("Dist = %v, want 5", got)
	}
}
