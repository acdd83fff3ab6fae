package geo

import (
	"fmt"
	"math"
)

// DefaultZoom is the Google Maps zoom level the paper pixelises at (§3.1):
// at zoom 17 each pixel spans roughly 0.99–1.19 m, which the authors treat
// as ~1 m spatial resolution.
const DefaultZoom = 17

// tileSize is the Web-Mercator base tile edge in pixels.
const tileSize = 256

// Pixel is a discretised Web-Mercator coordinate at a given zoom level.
// The paper uses pixel coordinates both to denoise GPS fixes and as the
// L (location) features for the ML models.
type Pixel struct {
	X    int
	Y    int
	Zoom int
}

func (p Pixel) String() string { return fmt.Sprintf("px(%d,%d)@z%d", p.X, p.Y, p.Zoom) }

// worldSize returns the edge length of the world map in pixels at zoom z.
func worldSize(zoom int) float64 {
	return float64(tileSize) * math.Exp2(float64(zoom))
}

// Pixelize projects a WGS-84 coordinate to Web-Mercator pixel coordinates
// at the given zoom level, using the Google Maps JavaScript API projection
// the paper references [9, 12].
func Pixelize(l LatLon, zoom int) Pixel {
	size := worldSize(zoom)
	x := (l.Lon + 180) / 360 * size
	sinLat := math.Sin(l.Lat * math.Pi / 180)
	// Clamp as Google's projection does to avoid infinities at the poles.
	sinLat = math.Max(-0.9999, math.Min(0.9999, sinLat))
	y := (0.5 - math.Log((1+sinLat)/(1-sinLat))/(4*math.Pi)) * size
	return Pixel{X: int(math.Floor(x)), Y: int(math.Floor(y)), Zoom: zoom}
}

// GridKey identifies a square aggregation cell. The paper's throughput
// maps (Fig 6) aggregate samples into 2 m × 2 m grids.
type GridKey struct {
	Col int
	Row int
}

// GridOf bins a local-frame point into cells of the given edge length in
// meters. Negative coordinates bin consistently (floor division).
func GridOf(p Point, cellMeters float64) GridKey {
	return GridKey{
		Col: int(math.Floor(p.X / cellMeters)),
		Row: int(math.Floor(p.Y / cellMeters)),
	}
}

// Center returns the center of the grid cell in the local frame.
func (g GridKey) Center(cellMeters float64) Point {
	return Point{
		X: (float64(g.Col) + 0.5) * cellMeters,
		Y: (float64(g.Row) + 0.5) * cellMeters,
	}
}
