// Package geo implements the geographic primitives used throughout
// Lumos5G: WGS-84 coordinates, a local planar frame for simulation,
// Web-Mercator pixelisation (the paper discretises GPS fixes to Google
// Maps pixel coordinates at zoom level 17, §3.1), great-circle distance,
// compass bearings, and the UE–panel geometry angles θ_p (positional) and
// θ_m (mobility) defined in §4.4–§4.5.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for haversine distance.
const EarthRadiusMeters = 6371008.8

// metersPerDegreeLat is the approximate north-south span of one degree of
// latitude; used by the local planar frame.
const metersPerDegreeLat = 111320.0

// LatLon is a WGS-84 coordinate in degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

func (l LatLon) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", l.Lat, l.Lon)
}

// Point is a position in a local east-north planar frame, in meters.
// The simulator works in this frame; conversion to LatLon happens only at
// the dataset boundary so records look like real GPS logs.
type Point struct {
	X float64 // meters east of the frame origin
	Y float64 // meters north of the frame origin
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Lerp linearly interpolates from p to q by t in [0,1].
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Frame anchors the local planar frame at a WGS-84 origin.
type Frame struct {
	Origin LatLon
}

// MinneapolisFrame is the frame used by the built-in areas; the anchor is
// in the Minneapolis downtown region where the paper measured.
var MinneapolisFrame = Frame{Origin: LatLon{Lat: 44.9740, Lon: -93.2581}}

// ToLatLon converts a local point to WGS-84 using an equirectangular
// approximation, which is accurate to well under GPS noise over the
// few-hundred-meter areas we simulate.
func (f Frame) ToLatLon(p Point) LatLon {
	lat := f.Origin.Lat + p.Y/metersPerDegreeLat
	lon := f.Origin.Lon + p.X/(metersPerDegreeLat*math.Cos(f.Origin.Lat*math.Pi/180))
	return LatLon{Lat: lat, Lon: lon}
}

// ToPoint converts a WGS-84 coordinate back to the local frame.
func (f Frame) ToPoint(l LatLon) Point {
	y := (l.Lat - f.Origin.Lat) * metersPerDegreeLat
	x := (l.Lon - f.Origin.Lon) * metersPerDegreeLat * math.Cos(f.Origin.Lat*math.Pi/180)
	return Point{X: x, Y: y}
}

// Bearing returns the initial compass bearing from a to b in degrees
// [0, 360), measured clockwise from true north — the same convention as
// Android's azimuth reported by the paper's measurement app.
func Bearing(a, b LatLon) float64 {
	const rad = math.Pi / 180
	dLon := (b.Lon - a.Lon) * rad
	lat1 := a.Lat * rad
	lat2 := b.Lat * rad
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	return Normalize360(math.Atan2(y, x) / rad)
}

// BearingPlanar returns the compass bearing of the vector from a to b in
// the local planar frame (+Y is north, +X is east).
func BearingPlanar(a, b Point) float64 {
	return Normalize360(math.Atan2(b.X-a.X, b.Y-a.Y) * 180 / math.Pi)
}

// Normalize360 maps an angle in degrees into [0, 360).
func Normalize360(deg float64) float64 {
	d := math.Mod(deg, 360)
	if d < 0 {
		d += 360
	}
	return d
}

// Normalize180 maps an angle in degrees into (-180, 180].
func Normalize180(deg float64) float64 {
	d := Normalize360(deg)
	if d > 180 {
		d -= 360
	}
	return d
}

// AngularDiff returns the absolute smallest difference between two bearings
// in degrees, in [0, 180].
func AngularDiff(a, b float64) float64 {
	return math.Abs(Normalize180(a - b))
}

// PositionalAngle computes θ_p: the clockwise angle from the panel's facing
// direction (the line normal to the panel front face) to the line from the
// panel to the UE, in [0, 360). θ_p ≈ 0° means the UE is directly in front
// ("F" in Fig 12), ≈180° means behind ("B").
func PositionalAngle(panel Point, panelFacing float64, ue Point) float64 {
	toUE := BearingPlanar(panel, ue)
	return Normalize360(toUE - panelFacing)
}

// MobilityAngle computes θ_m: the clockwise angle from the panel's facing
// direction to the UE's direction of travel, in [0, 360). Per §4.4,
// θ_m = 180° when the UE moves head-on toward the panel and 0° when it
// moves along the panel's facing direction (away from it, body-blocked).
func MobilityAngle(panelFacing, ueHeading float64) float64 {
	return Normalize360(ueHeading - panelFacing)
}

// PositionalSector classifies θ_p into the paper's F/R/B/L quadrants
// (Fig 12): F = front (±45° of the normal), then R, B, L clockwise.
type PositionalSector int

const (
	SectorFront PositionalSector = iota
	SectorRight
	SectorBack
	SectorLeft
)

func (s PositionalSector) String() string {
	switch s {
	case SectorFront:
		return "F"
	case SectorRight:
		return "R"
	case SectorBack:
		return "B"
	case SectorLeft:
		return "L"
	}
	return "?"
}

// SectorOf maps θ_p in degrees to its quadrant.
func SectorOf(thetaP float64) PositionalSector {
	d := Normalize360(thetaP)
	switch {
	case d < 45 || d >= 315:
		return SectorFront
	case d < 135:
		return SectorRight
	case d < 225:
		return SectorBack
	default:
		return SectorLeft
	}
}
