// Package geom provides the small amount of 2-D/3-D geometry the PBBS
// workloads need: vectors, bounding boxes, ray-triangle intersection
// (Möller–Trumbore) and deterministic point generators.
package geom

import (
	"math"
	"math/rand"
)

// Vec2 is a point or vector in the plane.
type Vec2 struct{ X, Y float64 }

// Sub returns a - b.
func (a Vec2) Sub(b Vec2) Vec2 { return Vec2{a.X - b.X, a.Y - b.Y} }

// Cross returns the z-component of the cross product a × b.
func (a Vec2) Cross(b Vec2) float64 { return a.X*b.Y - a.Y*b.X }

// Dist2 returns the squared distance between a and b.
func (a Vec2) Dist2(b Vec2) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Vec3 is a point or vector in space.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a.X, s * a.Y, s * a.Z} }

// Dot returns a · b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns a × b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Triangle is a triangle in space.
type Triangle struct{ A, B, C Vec3 }

// Centroid returns the triangle's centroid.
func (t Triangle) Centroid() Vec3 {
	return Vec3{(t.A.X + t.B.X + t.C.X) / 3, (t.A.Y + t.B.Y + t.C.Y) / 3, (t.A.Z + t.B.Z + t.C.Z) / 3}
}

// Bounds returns the triangle's axis-aligned bounding box.
func (t Triangle) Bounds() AABB {
	bb := EmptyAABB()
	bb.Extend(t.A)
	bb.Extend(t.B)
	bb.Extend(t.C)
	return bb
}

// Ray is a half-line with origin O and direction D (not necessarily
// normalized).
type Ray struct{ O, D Vec3 }

// IntersectTriangle runs the Möller–Trumbore test. It returns the ray
// parameter t ≥ 0 of the hit and whether the ray hits the triangle.
func (r Ray) IntersectTriangle(tri Triangle) (float64, bool) { return r.IntersectEdges(tri.Edges()) }

// Edges is a triangle as Möller–Trumbore reads it: vertex A and the
// edges E1 = B−A and E2 = C−A, computed once for many rays.
type Edges struct{ A, E1, E2 Vec3 }

// Edges returns the triangle's vertex A and its two edges from A.
func (t Triangle) Edges() Edges { return Edges{t.A, t.B.Sub(t.A), t.C.Sub(t.A)} }

// IntersectEdges is IntersectTriangle on a triangle's precomputed
// Edges.
func (r Ray) IntersectEdges(e Edges) (float64, bool) {
	const eps = 1e-12
	p := r.D.Cross(e.E2)
	det := e.E1.Dot(p)
	if det > -eps && det < eps {
		return 0, false // parallel
	}
	inv := 1 / det
	s := r.O.Sub(e.A)
	u := s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, false
	}
	q := s.Cross(e.E1)
	v := r.D.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, false
	}
	t := e.E2.Dot(q) * inv
	if t < eps {
		return 0, false
	}
	return t, true
}

// AABB is an axis-aligned bounding box.
type AABB struct{ Min, Max Vec3 }

// EmptyAABB returns an inverted box that Extend can grow from.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Extend grows the box to cover p.
func (b *AABB) Extend(p Vec3) {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
}

// Union grows the box to cover o.
func (b *AABB) Union(o AABB) {
	b.Extend(o.Min)
	b.Extend(o.Max)
}

// LongestAxis returns 0, 1 or 2 for the box's longest extent.
func (b AABB) LongestAxis() int {
	dx := b.Max.X - b.Min.X
	dy := b.Max.Y - b.Min.Y
	dz := b.Max.Z - b.Min.Z
	if dx >= dy && dx >= dz {
		return 0
	}
	if dy >= dz {
		return 1
	}
	return 2
}

// InvDir returns the per-axis reciprocals of r's direction, the
// argument IntersectRay takes so a ray tested against many boxes
// divides once.
func (r Ray) InvDir() Vec3 { return Vec3{1 / r.D.X, 1 / r.D.Y, 1 / r.D.Z} }

// IntersectRay returns whether r hits the box at some parameter in
// [0, tMax] using the slab method. inv must be r.InvDir().
func (b AABB) IntersectRay(r Ray, inv Vec3, tMax float64) bool {
	t0, t1, ok := slab(r.O.X, r.D.X, inv.X, b.Min.X, b.Max.X, 0, tMax)
	if ok {
		t0, t1, ok = slab(r.O.Y, r.D.Y, inv.Y, b.Min.Y, b.Max.Y, t0, t1)
	}
	if ok {
		_, _, ok = slab(r.O.Z, r.D.Z, inv.Z, b.Min.Z, b.Max.Z, t0, t1)
	}
	return ok
}

// slab clips the parameter interval [t0, t1] to one axis's slab
// [mn, mx] for a ray with origin o, direction d and id = 1/d; a ray
// parallel to the slab keeps the interval if its origin is inside.
func slab(o, d, id, mn, mx, t0, t1 float64) (float64, float64, bool) {
	if d == 0 {
		return t0, t1, !(o < mn || o > mx)
	}
	near := (mn - o) * id
	far := (mx - o) * id
	if near > far {
		near, far = far, near
	}
	if near > t0 {
		t0 = near
	}
	if far < t1 {
		t1 = far
	}
	return t0, t1, !(t0 > t1)
}

// Median3 returns the median of a, b and c: the pivot the knn and ray
// kernels' kd-tree builds partition around.
func Median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// RandomPoints2 returns n deterministic pseudo-random points in the
// unit square, with a mild cluster structure (a fraction of points
// concentrate around a few centers) so spatial workloads are
// irregular, like PBBS's Plummer-style inputs.
func RandomPoints2(n int, seed int64) []Vec2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Vec2, n)
	centers := make([]Vec2, 8)
	for i := range centers {
		centers[i] = Vec2{rng.Float64(), rng.Float64()}
	}
	for i := range pts {
		if rng.Intn(4) == 0 { // 25% clustered
			c := centers[rng.Intn(len(centers))]
			pts[i] = Vec2{
				c.X + 0.05*rng.NormFloat64(),
				c.Y + 0.05*rng.NormFloat64(),
			}
		} else {
			pts[i] = Vec2{rng.Float64(), rng.Float64()}
		}
	}
	return pts
}

// RandomTriangles returns n small deterministic triangles inside the
// unit cube, clustered like a scene rather than uniform dust.
func RandomTriangles(n int, seed int64) []Triangle {
	rng := rand.New(rand.NewSource(seed))
	tris := make([]Triangle, n)
	for i := range tris {
		c := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		size := 0.05 + 0.12*rng.Float64()
		jitter := func() Vec3 {
			return Vec3{
				(rng.Float64() - 0.5) * size,
				(rng.Float64() - 0.5) * size,
				(rng.Float64() - 0.5) * size,
			}
		}
		tris[i] = Triangle{A: c.Add(jitter()), B: c.Add(jitter()), C: c.Add(jitter())}
	}
	return tris
}

// RandomRays returns n deterministic rays shot from a plane in front
// of the unit cube toward it, like a camera.
func RandomRays(n int, seed int64) []Ray {
	rng := rand.New(rand.NewSource(seed))
	rays := make([]Ray, n)
	for i := range rays {
		o := Vec3{rng.Float64(), rng.Float64(), -1.5}
		target := Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		rays[i] = Ray{O: o, D: target.Sub(o)}
	}
	return rays
}
