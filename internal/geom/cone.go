package geom

import (
	"fmt"
	"math"
)

// Cone is the locus of directions making a fixed angle with an axis:
// every point p with angle(p−Apex, Axis) = Alpha. An AoA measurement
// constrains the transponder to such a cone around the antenna
// baseline (§6, Fig 7).
type Cone struct {
	Apex  Vec3    // antenna-pair midpoint
	Axis  Vec3    // baseline direction (unit length not required)
	Alpha float64 // half-angle, radians, in (0, π)
}

// Conic is a general plane conic A·x² + B·x·y + C·y² + D·x + E·y + F = 0
// in road coordinates. The intersection of an AoA cone with the road
// plane is such a curve: a hyperbola for a horizontal baseline (Eq 15),
// an ellipse when the baseline is tilted 60° toward the road.
type Conic struct {
	A, B, C, D, E, F float64
}

// Eval returns the conic's residual at (x, y); zero means on-curve.
func (q Conic) Eval(x, y float64) float64 {
	return q.A*x*x + q.B*x*y + q.C*y*y + q.D*x + q.E*y + q.F
}

// String renders the coefficients.
func (q Conic) String() string {
	return fmt.Sprintf("Conic{%.4g x² %+.4g xy %+.4g y² %+.4g x %+.4g y %+.4g}", q.A, q.B, q.C, q.D, q.E, q.F)
}

// PlaneConic computes the conic where the cone meets the horizontal
// plane z = zPlane. Derivation: with w = p − Apex and unit axis d,
// the cone is (w·d)² = cos²α·|w|²; substituting the fixed height
// wz = zPlane − Apex.Z and expanding in (wx, wy) yields a quadratic,
// which is then translated from apex-relative to absolute coordinates.
func (c Cone) PlaneConic(zPlane float64) Conic {
	d := c.Axis.Unit()
	c2 := math.Cos(c.Alpha)
	c2 *= c2
	wz := zPlane - c.Apex.Z
	k := d.Z * wz
	// Apex-relative conic in (wx, wy).
	q := Conic{
		A: d.X*d.X - c2,
		B: 2 * d.X * d.Y,
		C: d.Y*d.Y - c2,
		D: 2 * d.X * k,
		E: 2 * d.Y * k,
		F: k*k - c2*wz*wz,
	}
	// Translate wx = x − ax, wy = y − ay.
	ax, ay := c.Apex.X, c.Apex.Y
	return Conic{
		A: q.A,
		B: q.B,
		C: q.C,
		D: -2*q.A*ax - q.B*ay + q.D,
		E: -2*q.C*ay - q.B*ax + q.E,
		F: q.A*ax*ax + q.B*ax*ay + q.C*ay*ay - q.D*ax - q.E*ay + q.F,
	}
}

// SolveY returns the y values where the conic passes through a given x
// (0, 1 or 2 solutions).
func (q Conic) SolveY(x float64) []float64 {
	// C·y² + (B·x+E)·y + (A·x²+D·x+F) = 0.
	a := q.C
	b := q.B*x + q.E
	c := q.A*x*x + q.D*x + q.F
	if math.Abs(a) < 1e-12 {
		if math.Abs(b) < 1e-12 {
			return nil
		}
		return []float64{-c / b}
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return nil
	}
	s := math.Sqrt(disc)
	if s == 0 {
		return []float64{-b / (2 * a)}
	}
	return []float64{(-b - s) / (2 * a), (-b + s) / (2 * a)}
}
