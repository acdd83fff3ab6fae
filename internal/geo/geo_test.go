package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineZero(t *testing.T) {
	p := LatLon{44.97, -93.26}
	if d := Haversine(p, p); d != 0 {
		t.Fatalf("distance to self = %v", d)
	}
}

func TestHaversineKnown(t *testing.T) {
	// One degree of latitude is ~111.2 km.
	a := LatLon{44, -93}
	b := LatLon{45, -93}
	d := Haversine(a, b)
	if !approx(d, 111195, 300) {
		t.Fatalf("1 degree lat = %v m, want ~111195", d)
	}
}

func TestHaversineSymmetric(t *testing.T) {
	check := func(lat1f, lon1f, lat2f, lon2f uint16) bool {
		a := LatLon{float64(lat1f%120) - 60, float64(lon1f%360) - 180}
		b := LatLon{float64(lat2f%120) - 60, float64(lon2f%360) - 180}
		return approx(Haversine(a, b), Haversine(b, a), 1e-6)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBearingCardinal(t *testing.T) {
	origin := LatLon{44.97, -93.26}
	cases := []struct {
		name string
		to   LatLon
		want float64
	}{
		{"north", LatLon{44.98, -93.26}, 0},
		{"east", LatLon{44.97, -93.25}, 90},
		{"south", LatLon{44.96, -93.26}, 180},
		{"west", LatLon{44.97, -93.27}, 270},
	}
	for _, c := range cases {
		got := Bearing(origin, c.to)
		if AngularDiff(got, c.want) > 0.5 {
			t.Errorf("%s: bearing = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBearingPlanarCardinal(t *testing.T) {
	o := Point{0, 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{0, 10}, 0},
		{Point{10, 0}, 90},
		{Point{0, -10}, 180},
		{Point{-10, 0}, 270},
		{Point{10, 10}, 45},
	}
	for _, c := range cases {
		if got := BearingPlanar(o, c.to); !approx(got, c.want, 1e-9) {
			t.Errorf("BearingPlanar to %v = %v, want %v", c.to, got, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := MinneapolisFrame
	check := func(xr, yr int16) bool {
		p := Point{float64(xr % 2000), float64(yr % 2000)}
		q := f.ToPoint(f.ToLatLon(p))
		return approx(p.X, q.X, 0.01) && approx(p.Y, q.Y, 0.01)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFramePlanarDistanceMatchesHaversine(t *testing.T) {
	f := MinneapolisFrame
	a := Point{0, 0}
	b := Point{300, 400} // 500 m
	d := Haversine(f.ToLatLon(a), f.ToLatLon(b))
	if !approx(d, 500, 2) {
		t.Fatalf("haversine over planar 500 m = %v", d)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want360, want180 float64 }{
		{0, 0, 0},
		{360, 0, 0},
		{-90, 270, -90},
		{450, 90, 90},
		{180, 180, 180},
		{-180, 180, 180},
		{540, 180, 180},
	}
	for _, c := range cases {
		if got := Normalize360(c.in); !approx(got, c.want360, 1e-9) {
			t.Errorf("Normalize360(%v) = %v, want %v", c.in, got, c.want360)
		}
		if got := Normalize180(c.in); !approx(got, c.want180, 1e-9) {
			t.Errorf("Normalize180(%v) = %v, want %v", c.in, got, c.want180)
		}
	}
}

func TestAngularDiff(t *testing.T) {
	if d := AngularDiff(350, 10); !approx(d, 20, 1e-9) {
		t.Fatalf("wraparound diff = %v, want 20", d)
	}
	if d := AngularDiff(90, 270); !approx(d, 180, 1e-9) {
		t.Fatalf("opposite diff = %v, want 180", d)
	}
}

func TestMobilityAngleConvention(t *testing.T) {
	// Panel faces south (180°). UE walking north (0°) is walking head-on
	// toward the panel face: θ_m must be 180 (paper Fig 8).
	if got := MobilityAngle(180, 0); !approx(got, 180, 1e-9) {
		t.Fatalf("head-on θ_m = %v, want 180", got)
	}
	// UE walking south, along the panel's facing direction: θ_m = 0.
	if got := MobilityAngle(180, 180); !approx(got, 0, 1e-9) {
		t.Fatalf("along-facing θ_m = %v, want 0", got)
	}
}

func TestPositionalAngleConvention(t *testing.T) {
	panel := Point{0, 0}
	// Panel faces north. UE due north is in front: θ_p = 0.
	if got := PositionalAngle(panel, 0, Point{0, 50}); !approx(got, 0, 1e-9) {
		t.Fatalf("front θ_p = %v, want 0", got)
	}
	// UE due south is behind: θ_p = 180.
	if got := PositionalAngle(panel, 0, Point{0, -50}); !approx(got, 180, 1e-9) {
		t.Fatalf("back θ_p = %v, want 180", got)
	}
	// UE due east: θ_p = 90 (right of the panel).
	if got := PositionalAngle(panel, 0, Point{50, 0}); !approx(got, 90, 1e-9) {
		t.Fatalf("right θ_p = %v, want 90", got)
	}
}

func TestSectorOf(t *testing.T) {
	cases := []struct {
		theta float64
		want  PositionalSector
	}{
		{0, SectorFront}, {44, SectorFront}, {316, SectorFront},
		{45, SectorRight}, {90, SectorRight},
		{180, SectorBack}, {135, SectorBack},
		{270, SectorLeft}, {314, SectorLeft},
	}
	for _, c := range cases {
		if got := SectorOf(c.theta); got != c.want {
			t.Errorf("SectorOf(%v) = %v, want %v", c.theta, got, c.want)
		}
	}
}

func TestSectorString(t *testing.T) {
	if SectorFront.String() != "F" || SectorBack.String() != "B" ||
		SectorLeft.String() != "L" || SectorRight.String() != "R" {
		t.Fatal("sector strings wrong")
	}
	if PositionalSector(99).String() != "?" {
		t.Fatal("unknown sector should stringify to ?")
	}
}

func TestPixelizeResolution(t *testing.T) {
	// At Minneapolis latitude and zoom 17, a pixel should be ~0.84 m
	// (the paper quotes 0.99–1.19 m across its areas; the exact value
	// depends on latitude, ours is cos(44.97°)·1.19).
	res := PixelResolutionMeters(44.97, DefaultZoom)
	if res < 0.5 || res > 1.3 {
		t.Fatalf("resolution at z17 = %v m, expected near 1 m", res)
	}
	// At the equator, zoom 17 is ~1.19 m.
	eq := PixelResolutionMeters(0, DefaultZoom)
	if !approx(eq, 1.19, 0.02) {
		t.Fatalf("equator resolution = %v, want ~1.19", eq)
	}
}

func TestPixelizeRoundTrip(t *testing.T) {
	l := LatLon{44.9740, -93.2581}
	px := Pixelize(l, DefaultZoom)
	back := Unpixelize(px)
	if Haversine(l, back) > 2*PixelResolutionMeters(l.Lat, DefaultZoom) {
		t.Fatalf("round trip error too large: %v m", Haversine(l, back))
	}
}

func TestPixelizeMonotonic(t *testing.T) {
	// Moving east increases X; moving north decreases Y (screen coords).
	base := LatLon{44.97, -93.26}
	east := LatLon{44.97, -93.25}
	north := LatLon{44.98, -93.26}
	p0 := Pixelize(base, DefaultZoom)
	if pe := Pixelize(east, DefaultZoom); pe.X <= p0.X {
		t.Fatal("east should increase pixel X")
	}
	if pn := Pixelize(north, DefaultZoom); pn.Y >= p0.Y {
		t.Fatal("north should decrease pixel Y")
	}
}

func TestPixelizeNeighborsOneMeterApart(t *testing.T) {
	// Two points ~5 m apart should be a handful of pixels apart at z17.
	f := MinneapolisFrame
	a := Pixelize(f.ToLatLon(Point{0, 0}), DefaultZoom)
	b := Pixelize(f.ToLatLon(Point{5, 0}), DefaultZoom)
	dx := b.X - a.X
	if dx < 4 || dx > 8 {
		t.Fatalf("5 m east moved %d pixels, expected 4..8", dx)
	}
}

func TestGridOf(t *testing.T) {
	if g := GridOf(Point{3.9, 1.2}, 2); g != (GridKey{1, 0}) {
		t.Fatalf("GridOf = %+v", g)
	}
	if g := GridOf(Point{-0.1, -2.1}, 2); g != (GridKey{-1, -2}) {
		t.Fatalf("negative GridOf = %+v", g)
	}
}

func TestGridCenterInverse(t *testing.T) {
	check := func(xr, yr int16) bool {
		p := Point{float64(xr) / 3, float64(yr) / 3}
		g := GridOf(p, 2)
		c := g.Center(2)
		return GridOf(c, 2) == g && p.Dist(c) <= math.Sqrt2+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, 4}
	if p.Add(q) != (Point{4, 6}) {
		t.Fatal("Add")
	}
	if q.Sub(p) != (Point{2, 2}) {
		t.Fatal("Sub")
	}
	if p.Scale(2) != (Point{2, 4}) {
		t.Fatal("Scale")
	}
	if !approx(p.Dist(q), 2*math.Sqrt2, 1e-12) {
		t.Fatal("Dist")
	}
	if !approx(Point{3, 4}.Norm(), 5, 1e-12) {
		t.Fatal("Norm")
	}
	if p.Lerp(q, 0.5) != (Point{2, 3}) {
		t.Fatal("Lerp")
	}
}

// Haversine returns the great-circle distance between two WGS-84
// coordinates in meters.
func Haversine(a, b LatLon) float64 {
	const rad = math.Pi / 180
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(a.Lat*rad)*math.Cos(b.Lat*rad)*sinLon*sinLon
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(math.Min(1, h)))
}

// Unpixelize returns the WGS-84 coordinate of the pixel's top-left corner.
func Unpixelize(p Pixel) LatLon {
	size := worldSize(p.Zoom)
	lon := float64(p.X)/size*360 - 180
	n := math.Pi - 2*math.Pi*float64(p.Y)/size
	lat := 180 / math.Pi * math.Atan(math.Sinh(n))
	return LatLon{Lat: lat, Lon: lon}
}

// PixelResolutionMeters returns the ground resolution of one pixel at the
// given latitude and zoom, in meters per pixel.
func PixelResolutionMeters(lat float64, zoom int) float64 {
	circumference := 2 * math.Pi * EarthRadiusMeters
	return circumference * math.Cos(lat*math.Pi/180) / worldSize(zoom)
}
