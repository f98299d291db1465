package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Contains reports whether p lies on the cone within tol radians of
// angular error: the check the tests hold cone-plane intersections to.
func (c Cone) Contains(p Vec3, tol float64) bool {
	r := p.Sub(c.Apex)
	n := r.Norm()
	if n == 0 {
		return false
	}
	cosGot := r.Dot(c.Axis.Unit()) / n
	if cosGot > 1 {
		cosGot = 1
	} else if cosGot < -1 {
		cosGot = -1
	}
	return math.Abs(math.Acos(cosGot)-c.Alpha) <= tol
}

// coneThrough builds the AoA cone that a transponder at p produces for
// an antenna baseline at apex with the given axis.
func coneThrough(apex, axis, p Vec3) Cone {
	r := p.Sub(apex)
	cosA := r.Dot(axis.Unit()) / r.Norm()
	return Cone{Apex: apex, Axis: axis, Alpha: math.Acos(cosA)}
}

func TestConeContains(t *testing.T) {
	apex := Vec3{0, 0, 4}
	axis := Vec3{1, 0, 0}
	p := Vec3{10, 3, 0}
	c := coneThrough(apex, axis, p)
	if !c.Contains(p, 1e-9) {
		t.Error("cone does not contain its defining point")
	}
	if c.Contains(Vec3{10, 8, 0}, 1e-3) {
		t.Error("cone contains an off-cone point")
	}
	if c.Contains(apex, 1e-3) {
		t.Error("cone contains its own apex")
	}
}

func TestPlaneConicContainsProjectedPoints(t *testing.T) {
	// Any road-plane point must satisfy the conic of the cone built
	// through it — for horizontal and for tilted baselines.
	rng := rand.New(rand.NewSource(81))
	axes := []Vec3{
		{1, 0, 0},                   // horizontal baseline → hyperbola
		{0.5, 0, -math.Sqrt(3) / 2}, // 60°-tilted baseline → ellipse
		{0.7, 0.3, -0.2},            // arbitrary tilt
	}
	for _, axis := range axes {
		for i := 0; i < 30; i++ {
			apex := Vec3{0, 0, 3 + 2*rng.Float64()}
			p := Vec3{2 + 28*rng.Float64(), -8 + 16*rng.Float64(), 0}
			cone := coneThrough(apex, axis, p)
			q := cone.PlaneConic(0)
			scale := math.Abs(q.A) + math.Abs(q.B) + math.Abs(q.C) + 1
			if res := q.Eval(p.X, p.Y); math.Abs(res) > 1e-6*scale*(1+p.X*p.X+p.Y*p.Y) {
				t.Fatalf("axis %v: conic residual %g at %v", axis, res, p)
			}
		}
	}
}

func TestPlaneConicMatchesPaperHyperbola(t *testing.T) {
	// For a horizontal baseline along x at height b, Eq 15 gives
	// tan²α·x² − y² = b² (apex-centered coordinates).
	b := 4.0
	alpha := Radians(70)
	cone := Cone{Apex: Vec3{0, 0, b}, Axis: Vec3{1, 0, 0}, Alpha: alpha}
	q := cone.PlaneConic(0)
	// The paper's form, rearranged to A'x² + C'y² + F' = 0 with
	// A' = tan²α, C' = −1, F' = −b². Our conic must be proportional.
	tan2 := math.Tan(alpha) * math.Tan(alpha)
	// Normalize both by the y² coefficient.
	ratioA := (q.A / q.C) / (tan2 / -1)
	ratioF := (q.F / q.C) / (-b * b / -1)
	if !almostEq(ratioA, 1, 1e-9) || !almostEq(ratioF, 1, 1e-9) {
		t.Errorf("conic %v does not match Eq 15 (ratios %g, %g)", q, ratioA, ratioF)
	}
	if q.B != 0 || q.D != 0 || q.E != 0 {
		t.Errorf("expected axis-aligned apex-centered hyperbola, got %v", q)
	}
}

func TestTiltedConeYieldsEllipse(t *testing.T) {
	// A cone whose axis points 60° downward intersects the plane in an
	// ellipse when the half-angle is smaller than the axis depression
	// (§6: "the intersection of the cone and road plane is an ellipse").
	axis := Vec3{0.5, 0, -math.Sqrt(3) / 2} // 60° below horizontal
	cone := Cone{Apex: Vec3{0, 0, 4}, Axis: axis, Alpha: Radians(25)}
	q := cone.PlaneConic(0)
	// Ellipse test: discriminant B²−4AC < 0.
	if disc := q.B*q.B - 4*q.A*q.C; disc >= 0 {
		t.Errorf("discriminant %g ≥ 0; expected ellipse", disc)
	}
	// Horizontal baseline at the same angle is a hyperbola.
	h := Cone{Apex: Vec3{0, 0, 4}, Axis: Vec3{1, 0, 0}, Alpha: Radians(70)}
	qh := h.PlaneConic(0)
	if disc := qh.B*qh.B - 4*qh.A*qh.C; disc <= 0 {
		t.Errorf("discriminant %g ≤ 0; expected hyperbola", disc)
	}
}

func TestSolveYOnKnownCircle(t *testing.T) {
	// x² + y² − 25 = 0.
	q := Conic{A: 1, C: 1, F: -25}
	ys := q.SolveY(3)
	if len(ys) != 2 {
		t.Fatalf("got %d roots, want 2", len(ys))
	}
	if !almostEq(ys[0], -4, 1e-9) || !almostEq(ys[1], 4, 1e-9) {
		t.Errorf("roots %v, want ±4", ys)
	}
	if ys := q.SolveY(6); len(ys) != 0 {
		t.Errorf("x=6 returned roots %v", ys)
	}
	if ys := q.SolveY(5); len(ys) != 1 {
		t.Errorf("tangent x=5 returned %d roots", len(ys))
	}
	// Degenerate linear case: y = x.
	lin := Conic{B: 0, C: 0, E: 1, D: -1}
	if ys := lin.SolveY(2); len(ys) != 1 || !almostEq(ys[0], 2, 1e-12) {
		t.Errorf("linear conic roots %v", ys)
	}
}
