package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVec2Ops(t *testing.T) {
	a, b := Vec2{3, 4}, Vec2{1, 1}
	if d := a.Sub(b); d.X != 2 || d.Y != 3 {
		t.Fatalf("Sub = %v", d)
	}
	if c := (Vec2{1, 0}).Cross(Vec2{0, 1}); c != 1 {
		t.Fatalf("Cross = %v", c)
	}
	if d2 := a.Dist2(Vec2{0, 0}); d2 != 25 {
		t.Fatalf("Dist2 = %v", d2)
	}
}

func TestMedian3(t *testing.T) {
	for _, c := range [][4]float64{
		{1, 2, 3, 2}, {1, 3, 2, 2}, {2, 1, 3, 2}, {2, 3, 1, 2}, {3, 1, 2, 2}, {3, 2, 1, 2},
		{1, 1, 2, 1}, {2, 1, 1, 1}, {1, 2, 2, 2}, {-1, -1, -1, -1},
	} {
		if got := Median3(c[0], c[1], c[2]); got != c[3] {
			t.Errorf("Median3(%g, %g, %g) = %g, want %g", c[0], c[1], c[2], got, c[3])
		}
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	if s := a.Scale(2); s != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", s)
	}
	if d := a.Dot(Vec3{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %v", d)
	}
	x := Vec3{1, 0, 0}.Cross(Vec3{0, 1, 0})
	if x != (Vec3{0, 0, 1}) {
		t.Fatalf("Cross = %v", x)
	}
}

func TestRayTriangleHit(t *testing.T) {
	tri := Triangle{A: Vec3{0, 0, 1}, B: Vec3{1, 0, 1}, C: Vec3{0, 1, 1}}
	r := Ray{O: Vec3{0.2, 0.2, 0}, D: Vec3{0, 0, 1}}
	d, ok := r.IntersectTriangle(tri)
	if !ok || math.Abs(d-1) > 1e-12 {
		t.Fatalf("hit = %v,%v, want t=1", d, ok)
	}
	// Ray pointing away misses.
	r.D = Vec3{0, 0, -1}
	if _, ok := r.IntersectTriangle(tri); ok {
		t.Fatal("backwards ray reported a hit")
	}
	// Ray outside the triangle misses.
	r = Ray{O: Vec3{2, 2, 0}, D: Vec3{0, 0, 1}}
	if _, ok := r.IntersectTriangle(tri); ok {
		t.Fatal("outside ray reported a hit")
	}
	// Parallel ray misses.
	r = Ray{O: Vec3{0, 0, 0}, D: Vec3{1, 0, 0}}
	if _, ok := r.IntersectTriangle(tri); ok {
		t.Fatal("parallel ray reported a hit")
	}
}

func TestAABBExtendUnion(t *testing.T) {
	bb := EmptyAABB()
	bb.Extend(Vec3{1, 2, 3})
	bb.Extend(Vec3{-1, 0, 5})
	if bb.Min != (Vec3{-1, 0, 3}) || bb.Max != (Vec3{1, 2, 5}) {
		t.Fatalf("bounds = %v", bb)
	}
	other := EmptyAABB()
	other.Extend(Vec3{10, 10, 10})
	bb.Union(other)
	if bb.Max != (Vec3{10, 10, 10}) {
		t.Fatalf("union max = %v", bb.Max)
	}
}

func TestLongestAxis(t *testing.T) {
	bb := AABB{Min: Vec3{0, 0, 0}, Max: Vec3{1, 5, 2}}
	if a := bb.LongestAxis(); a != 1 {
		t.Fatalf("axis = %d, want 1", a)
	}
}

func TestAABBRay(t *testing.T) {
	bb := AABB{Min: Vec3{0, 0, 0}, Max: Vec3{1, 1, 1}}
	hit := Ray{O: Vec3{0.5, 0.5, -1}, D: Vec3{0, 0, 1}}
	if !bb.IntersectRay(hit, hit.InvDir(), 100) {
		t.Fatal("central ray should hit the box")
	}
	if bb.IntersectRay(hit, hit.InvDir(), 0.5) {
		t.Fatal("tMax shorter than box entry should miss")
	}
	miss := Ray{O: Vec3{5, 5, -1}, D: Vec3{0, 0, 1}}
	if bb.IntersectRay(miss, miss.InvDir(), 100) {
		t.Fatal("offset ray should miss the box")
	}
	par := Ray{O: Vec3{-1, 0.5, 0.5}, D: Vec3{0, 1, 0}} // parallel to x slabs, outside
	if bb.IntersectRay(par, par.InvDir(), 100) {
		t.Fatal("outside axis-parallel ray should miss")
	}
}

// intersectRayDivide is the slab test as it was before IntersectRay
// took the ray's reciprocals: one division per axis of every box.
func intersectRayDivide(b AABB, r Ray, tMax float64) bool {
	t0, t1 := 0.0, tMax
	for axis := 0; axis < 3; axis++ {
		var o, d, mn, mx float64
		switch axis {
		case 0:
			o, d, mn, mx = r.O.X, r.D.X, b.Min.X, b.Max.X
		case 1:
			o, d, mn, mx = r.O.Y, r.D.Y, b.Min.Y, b.Max.Y
		default:
			o, d, mn, mx = r.O.Z, r.D.Z, b.Min.Z, b.Max.Z
		}
		if d == 0 {
			if o < mn || o > mx {
				return false
			}
			continue
		}
		inv := 1 / d
		near := (mn - o) * inv
		far := (mx - o) * inv
		if near > far {
			near, far = far, near
		}
		if near > t0 {
			t0 = near
		}
		if far < t1 {
			t1 = far
		}
		if t0 > t1 {
			return false
		}
	}
	return true
}

// intersectRayLoop is IntersectRay as it was before its three slab
// steps were unrolled: one loop over the axes with a switch.
func intersectRayLoop(b AABB, r Ray, inv Vec3, tMax float64) bool {
	t0, t1 := 0.0, tMax
	for axis := 0; axis < 3; axis++ {
		var o, d, id, mn, mx float64
		switch axis {
		case 0:
			o, d, id, mn, mx = r.O.X, r.D.X, inv.X, b.Min.X, b.Max.X
		case 1:
			o, d, id, mn, mx = r.O.Y, r.D.Y, inv.Y, b.Min.Y, b.Max.Y
		default:
			o, d, id, mn, mx = r.O.Z, r.D.Z, inv.Z, b.Min.Z, b.Max.Z
		}
		if d == 0 {
			if o < mn || o > mx {
				return false
			}
			continue
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
		if t0 > t1 {
			return false
		}
	}
	return true
}

// TestIntersectRayMatchesDivide: taking the reciprocals from the caller
// gives the divide-per-axis answer on every input, including zero and
// negative-zero directions, subnormal directions whose reciprocal
// overflows, rays whose origin lies on a box face and tMax exactly at a
// slab edge, and NaN in an origin, a direction or tMax. The unrolled
// slab steps also give the old loop's answer on every input. Box corners and origins come from a small grid so faces
// and origins coincide often.
func TestIntersectRayMatchesDivide(t *testing.T) {
	pick := func(rng *rand.Rand, vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	coord := func(rng *rand.Rand) float64 {
		if rng.Intn(4) == 0 {
			return 3*rng.Float64() - 1
		}
		return pick(rng, -1, 0, 0.5, 1, 2)
	}
	gen := func(args []reflect.Value, rng *rand.Rand) {
		var b AABB
		var r Ray
		lo, hi := []*float64{&b.Min.X, &b.Min.Y, &b.Min.Z}, []*float64{&b.Max.X, &b.Max.Y, &b.Max.Z}
		o, d := []*float64{&r.O.X, &r.O.Y, &r.O.Z}, []*float64{&r.D.X, &r.D.Y, &r.D.Z}
		for a := 0; a < 3; a++ {
			*lo[a], *hi[a] = coord(rng), coord(rng)
			if *lo[a] > *hi[a] {
				*lo[a], *hi[a] = *hi[a], *lo[a]
			}
			*o[a] = coord(rng)
			*d[a] = pick(rng, 0, math.Copysign(0, -1), 1, -1, 0.5, -2, 5e-324, rng.NormFloat64())
			if rng.Intn(200) == 0 {
				*o[a] = math.NaN()
			}
			if rng.Intn(200) == 0 {
				*d[a] = math.NaN()
			}
		}
		tMax := pick(rng, 0, 1, 1e30, math.Inf(1), 4*rng.Float64())
		if rng.Intn(200) == 0 {
			tMax = math.NaN()
		}
		if a := rng.Intn(3); rng.Intn(2) == 0 && *d[a] != 0 {
			// tMax at a slab edge: exactly where the ray enters or
			// leaves the box's slab on axis a.
			edge := *lo[a]
			if rng.Intn(2) == 0 {
				edge = *hi[a]
			}
			tMax = (edge - *o[a]) / *d[a]
		}
		args[0], args[1], args[2] = reflect.ValueOf(b), reflect.ValueOf(r), reflect.ValueOf(tMax)
	}
	var hits, misses int
	divide := func(b AABB, r Ray, tMax float64) bool {
		ok := intersectRayDivide(b, r, tMax)
		if ok {
			hits++
		} else {
			misses++
		}
		return ok
	}
	recip := func(b AABB, r Ray, tMax float64) bool { return b.IntersectRay(r, r.InvDir(), tMax) }
	loop := func(b AABB, r Ray, tMax float64) bool { return intersectRayLoop(b, r, r.InvDir(), tMax) }
	if err := quick.CheckEqual(divide, recip, &quick.Config{MaxCount: 20_000, Values: gen}); err != nil {
		t.Fatal(err)
	}
	if err := quick.CheckEqual(loop, recip, &quick.Config{MaxCount: 20_000, Values: gen}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d hits, %d misses", hits, misses)
	if hits < 1000 || misses < 1000 {
		t.Fatalf("%d hits and %d misses: the generator does not exercise both answers", hits, misses)
	}
}

// intersectTriangleInline is IntersectTriangle as it was before it
// read a triangle's precomputed Edges.
func intersectTriangleInline(r Ray, tri Triangle) (float64, bool) {
	const eps = 1e-12
	e1 := tri.B.Sub(tri.A)
	e2 := tri.C.Sub(tri.A)
	p := r.D.Cross(e2)
	det := e1.Dot(p)
	if det > -eps && det < eps {
		return 0, false // parallel
	}
	inv := 1 / det
	s := r.O.Sub(tri.A)
	u := s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, false
	}
	q := s.Cross(e1)
	v := r.D.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, false
	}
	t := e2.Dot(q) * inv
	if t < eps {
		return 0, false
	}
	return t, true
}

// TestIntersectEdgesMatchesInline: Möller–Trumbore on precomputed
// edges gives the inline test's answer, bit for bit, on random scenes
// and on degenerate ones: a collapsed vertex, a zero or NaN direction
// component, a ray parallel to the triangle, an origin on a vertex.
func TestIntersectEdgesMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tris := RandomTriangles(200, 3)
	rays := RandomRays(200, 4)
	for i := range tris {
		switch i % 5 {
		case 1:
			tris[i].C = tris[i].A
		case 2:
			rays[i].D.X = 0
		case 3:
			rays[i].D.Y = math.NaN()
		case 4:
			rays[i].O = tris[i].B
		}
		if i%7 == 0 {
			rays[i].D = tris[i].B.Sub(tris[i].A).Scale(rng.Float64())
		}
	}
	var hits int
	for _, tri := range tris {
		e := tri.Edges()
		for _, r := range rays {
			d0, ok0 := intersectTriangleInline(r, tri)
			d1, ok1 := r.IntersectEdges(e)
			d2, ok2 := r.IntersectTriangle(tri)
			if ok0 != ok1 || math.Float64bits(d0) != math.Float64bits(d1) || ok1 != ok2 || math.Float64bits(d1) != math.Float64bits(d2) {
				t.Fatalf("ray %+v, triangle %+v: inline (%v, %v), edges (%v, %v), IntersectTriangle (%v, %v)", r, tri, d0, ok0, d1, ok1, d2, ok2)
			}
			if ok0 {
				hits++
			}
		}
	}
	if hits < 50 {
		t.Fatalf("only %d hits: the scene does not exercise the hit path", hits)
	}
}

func TestRayHitInsideTriangleBoundsProperty(t *testing.T) {
	// Any reported hit point must lie inside the triangle's AABB
	// (within epsilon).
	f := func(ox, oy uint8, seed int64) bool {
		tris := RandomTriangles(4, seed)
		r := Ray{
			O: Vec3{float64(ox)/255 - 0.5, float64(oy)/255 - 0.5, -2},
			D: Vec3{0.1, 0.1, 1},
		}
		for _, tri := range tris {
			d, ok := r.IntersectTriangle(tri)
			if !ok {
				continue
			}
			p := r.O.Add(r.D.Scale(d))
			bb := tri.Bounds()
			const eps = 1e-9
			if p.X < bb.Min.X-eps || p.X > bb.Max.X+eps ||
				p.Y < bb.Min.Y-eps || p.Y > bb.Max.Y+eps ||
				p.Z < bb.Min.Z-eps || p.Z > bb.Max.Z+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomPoints2(100, 42)
	b := RandomPoints2(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomPoints2 not deterministic")
		}
	}
	t1 := RandomTriangles(10, 7)
	t2 := RandomTriangles(10, 7)
	if t1[9] != t2[9] {
		t.Fatal("RandomTriangles not deterministic")
	}
	r1 := RandomRays(10, 7)
	r2 := RandomRays(10, 7)
	if r1[9] != r2[9] {
		t.Fatal("RandomRays not deterministic")
	}
	c := RandomPoints2(100, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical points")
	}
}

func TestCentroid(t *testing.T) {
	tri := Triangle{A: Vec3{0, 0, 0}, B: Vec3{3, 0, 0}, C: Vec3{0, 3, 0}}
	if c := tri.Centroid(); c != (Vec3{1, 1, 0}) {
		t.Fatalf("centroid = %v", c)
	}
}
