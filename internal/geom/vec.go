// Package geom provides 3-D vector arithmetic and linear-time neighbor
// search (cell lists), the geometric substrate for fragmentation (paper
// Eq. 1, §IV-B): detecting covalent bonds, finding generalized-concap
// residue pairs within the distance threshold λ, and enumerating
// residue–water and water–water two-body interactions.
package geom

import "math"

// Vec3 is a point or displacement in 3-D space. Units are whatever the
// caller uses consistently (Å for structures, bohr inside the engine).
type Vec3 struct{ X, Y, Z float64 }

// V constructs a Vec3; it keeps call sites concise where the unkeyed
// composite literal would trip go vet in importing packages.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns |v − w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Dist2 returns |v − w|².
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Norm2() }

// Normalize returns v/|v|; the zero vector is returned unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// RotateAbout rotates point p about the axis through origin o with unit
// direction axis by angle theta (radians, right-hand rule).
func RotateAbout(p, o, axis Vec3, theta float64) Vec3 {
	v := p.Sub(o)
	k := axis.Normalize()
	c, s := math.Cos(theta), math.Sin(theta)
	// Rodrigues' rotation formula.
	rot := v.Scale(c).Add(k.Cross(v).Scale(s)).Add(k.Scale(k.Dot(v) * (1 - c)))
	return o.Add(rot)
}
