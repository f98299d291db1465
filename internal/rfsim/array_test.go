package rfsim

import (
	"math"
	"testing"

	"caraoke/internal/geom"
)

// NewPairArray builds a two-element array centered at center with the
// given baseline axis and spacing (λ/2 = 16.4 cm in the prototype): the
// one-baseline fixture of this package's tests. Every reader carries
// the triangle.
func NewPairArray(center, axis geom.Vec3, spacing float64) Array {
	u := axis.Unit().Scale(spacing / 2)
	return Array{Elements: []geom.Vec3{center.Sub(u), center.Add(u)}}
}

func TestNewPairArrayGeometry(t *testing.T) {
	lambda := geom.Wavelength(915e6)
	center := geom.V(1, 2, 3)
	arr := NewPairArray(center, geom.V(2, 0, 0), lambda/2)
	if len(arr.Elements) != 2 {
		t.Fatalf("want 2 elements, got %d", len(arr.Elements))
	}
	if d := arr.Elements[0].Dist(arr.Elements[1]); math.Abs(d-lambda/2) > 1e-12 {
		t.Errorf("spacing %g, want %g", d, lambda/2)
	}
	if c := arr.Center(); c.Dist(center) > 1e-12 {
		t.Errorf("center %v, want %v", c, center)
	}
	p := Pair{0, 1}
	if mid := arr.Midpoint(p); mid.Dist(center) > 1e-12 {
		t.Errorf("midpoint %v, want %v", mid, center)
	}
	if ax := arr.Axis(p); math.Abs(ax.Unit().X-1) > 1e-12 {
		t.Errorf("axis %v, want +x", ax)
	}
}

func TestNewTriangleArrayGeometry(t *testing.T) {
	side := 0.1639
	arr, err := NewTriangleArray(geom.V(0, 0, 4), geom.V(1, 0, 0), geom.V(0, 1, 0), side)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Elements) != 3 {
		t.Fatalf("want 3 elements, got %d", len(arr.Elements))
	}
	pairs := arr.Pairs()
	if len(pairs) != 3 {
		t.Fatalf("want 3 pairs, got %d", len(pairs))
	}
	for _, p := range pairs {
		if d := arr.Elements[p.I].Dist(arr.Elements[p.J]); math.Abs(d-side) > 1e-12 {
			t.Errorf("side %v length %g, want %g (equilateral)", p, d, side)
		}
	}
	// Pair axes are mutually at 60°.
	a0 := arr.Axis(pairs[0]).Unit()
	a1 := arr.Axis(pairs[1]).Unit()
	if cos := math.Abs(a0.Dot(a1)); math.Abs(cos-0.5) > 1e-9 {
		t.Errorf("pair axes at cos=%g, want 0.5 (60°)", cos)
	}
}

func TestNewTriangleArrayRejectsCollinearBasis(t *testing.T) {
	_, err := NewTriangleArray(geom.Vec3{}, geom.V(1, 0, 0), geom.V(2, 0, 0), 0.16)
	if err == nil {
		t.Error("collinear basis accepted")
	}
}

func TestTriangleOnPole(t *testing.T) {
	arr, err := TriangleOnPole(geom.V(5, -3, 0), 3.8, geom.V(1, 0, 0), 60, 0.1639)
	if err != nil {
		t.Fatal(err)
	}
	c := arr.Center()
	if c.Dist(geom.V(5, -3, 3.8)) > 1e-9 {
		t.Errorf("array center %v, want pole top", c)
	}
	// All elements near pole-top height, within the circumradius.
	for _, e := range arr.Elements {
		if math.Abs(e.Z-3.8) > 0.1639 {
			t.Errorf("element %v too far from pole top height", e)
		}
	}
	if _, err := TriangleOnPole(geom.Vec3{}, 3.8, geom.V(0, 0, 1), 60, 0.16); err == nil {
		t.Error("vertical road direction accepted")
	}
}
