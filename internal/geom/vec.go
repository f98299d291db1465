// Package geom provides the spatial reasoning Caraoke's localization
// needs (§6–§7 of the paper): angle-of-arrival computation from antenna
// phase differences, the cone of positions consistent with an AoA, the
// conic curve where that cone meets the road plane (a hyperbola for a
// horizontal antenna baseline, an ellipse for the 60°-tilted baseline),
// and the intersection of two such curves from readers on opposite
// sides of the road, which pins down the car's position.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in road coordinates: x along the road,
// y across it, z up. Units are meters throughout the package.
type Vec3 struct {
	X, Y, Z float64
}

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// P constructs a plane point.
func P(x, y float64) Vec2 { return Vec2{x, y} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v/|v|. It panics on the zero vector.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		panic("geom: unit of zero vector")
	}
	return v.Scale(1 / n)
}

// Dist returns |v − w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// String formats the vector with centimeter precision.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.2f, %.2f, %.2f)", v.X, v.Y, v.Z)
}

// Vec2 is a point on the road plane.
type Vec2 struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two plane points.
func (p Vec2) Dist(q Vec2) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String formats the point with centimeter precision.
func (p Vec2) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }
