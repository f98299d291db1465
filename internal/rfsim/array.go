package rfsim

import (
	"fmt"
	"math"

	"caraoke/internal/geom"
)

// Array is a reader's antenna array: element positions in road
// coordinates. Caraoke's prototype uses three omnidirectional antennas
// in an equilateral triangle of side λ/2 with a programmable switch
// selecting one pair at a time (§6, Fig 6); the simulator captures on
// all elements and lets the algorithm choose pairs afterward, which is
// equivalent for the signal processing.
type Array struct {
	Elements []geom.Vec3
}

// Center returns the centroid of the array elements.
func (a Array) Center() geom.Vec3 {
	var c geom.Vec3
	for _, e := range a.Elements {
		c = c.Add(e)
	}
	return c.Scale(1 / float64(len(a.Elements)))
}

// Pair identifies two array elements used for one AoA measurement.
type Pair struct {
	I, J int
}

// Axis returns the baseline direction from element I to element J.
func (a Array) Axis(p Pair) geom.Vec3 {
	return a.Elements[p.J].Sub(a.Elements[p.I])
}

// Midpoint returns the midpoint of the pair's baseline: the apex of
// the AoA cone.
func (a Array) Midpoint(p Pair) geom.Vec3 {
	return a.Elements[p.I].Add(a.Elements[p.J]).Scale(0.5)
}

// Pairs enumerates all element pairs.
func (a Array) Pairs() []Pair {
	var ps []Pair
	for i := 0; i < len(a.Elements); i++ {
		for j := i + 1; j < len(a.Elements); j++ {
			ps = append(ps, Pair{i, j})
		}
	}
	return ps
}

// NewTriangleArray builds the prototype's equilateral-triangle array.
// The triangle lies in the plane spanned by u and v (orthonormalized
// internally), centered at center, with the given side length. Vertex 0
// points along +v from the center.
func NewTriangleArray(center, u, v geom.Vec3, side float64) (Array, error) {
	uu := u.Unit()
	// Gram-Schmidt: remove u's component from v.
	vp := v.Sub(uu.Scale(v.Dot(uu)))
	if vp.Norm() < 1e-12 {
		return Array{}, fmt.Errorf("rfsim: triangle basis vectors are collinear")
	}
	vv := vp.Unit()
	r := side / math.Sqrt(3) // circumradius
	els := make([]geom.Vec3, 3)
	for k := 0; k < 3; k++ {
		ang := math.Pi/2 + 2*math.Pi*float64(k)/3
		els[k] = center.Add(uu.Scale(r * math.Cos(ang))).Add(vv.Scale(r * math.Sin(ang)))
	}
	return Array{Elements: els}, nil
}

// TriangleOnPole builds the deployment geometry of §12.2: a triangle
// array atop a pole at poleBase (road-plane point) of the given height,
// with one basis vector along the road direction and the other tilted
// 60° from the road plane. This tilt keeps AoA errors balanced across
// parking spots (Fig 13 discussion).
func TriangleOnPole(poleBase geom.Vec3, height float64, roadDir geom.Vec3, tiltDeg, side float64) (Array, error) {
	center := poleBase.Add(geom.Vec3{Z: height})
	road := geom.Vec3{X: roadDir.X, Y: roadDir.Y}
	if road.Norm() == 0 {
		return Array{}, fmt.Errorf("rfsim: road direction must have a horizontal component")
	}
	road = road.Unit()
	// Perpendicular-horizontal and vertical mix at the tilt angle.
	perp := geom.Vec3{X: -road.Y, Y: road.X}
	t := geom.Radians(tiltDeg)
	tilted := perp.Scale(math.Cos(t)).Add(geom.Vec3{Z: math.Sin(t)})
	return NewTriangleArray(center, road, tilted, side)
}
