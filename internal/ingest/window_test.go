package ingest

import (
	"fmt"
	"math"
	"testing"

	"lumos5g/internal/dataset"
	"lumos5g/internal/geo"
	"lumos5g/internal/rng"
)

func capRec(px int, mbps float64) dataset.Record {
	return dataset.Record{PixelX: px, PixelY: 0, ThroughputMbps: mbps,
		GPSAccuracy: math.NaN(), SpeedKmh: math.NaN()}
}

// Regression: without a per-cell cap a parked UE floods the window with
// one cell's samples until every other cell is evicted. With CellCap
// the flooded cell must keep only its newest cap samples while the
// other cells' records survive untouched.
func TestWindowCellCapOldestInCellEviction(t *testing.T) {
	w := newWindow(16, 2)
	w.add(capRec(2, 50)) // cell {1,0}: the bystander a parked UE used to evict
	for i := 0; i < 10; i++ {
		w.add(capRec(0, float64(100+i))) // cell {0,0}: the parked UE
		if err := w.checkConsistency(); err != nil {
			t.Fatalf("after flood add %d: %v", i, err)
		}
	}
	n, cells := w.stats()
	if n != 3 || cells != 2 {
		t.Fatalf("window = %d samples / %d cells, want 3/2", n, cells)
	}
	agg := w.cells[geo.GridKey{Col: 0, Row: 0}]
	if agg == nil || agg.n != 2 || agg.sum != 108+109 {
		t.Fatalf("flooded cell agg = %+v, want newest two (108, 109)", agg)
	}
	snap := w.snapshot()
	if len(snap.Records) != 3 {
		t.Fatalf("snapshot = %d records, want 3", len(snap.Records))
	}
	// Oldest-first snapshot: bystander, then the flooded cell's two newest.
	if snap.Records[0].ThroughputMbps != 50 ||
		snap.Records[1].ThroughputMbps != 108 ||
		snap.Records[2].ThroughputMbps != 109 {
		t.Fatalf("snapshot order wrong: %+v", snap.Records)
	}
}

// The tombstoned slots left by per-cell eviction must interact cleanly
// with ring wrap-around: a reclaimed tombstone is not unwound twice.
func TestWindowCellCapRingWrapOverTombstones(t *testing.T) {
	w := newWindow(4, 1)
	for i := 0; i < 12; i++ {
		// Alternate two cells so tombstones and live slots interleave
		// while the tiny ring wraps three times.
		w.add(capRec((i%2)*2, float64(i)))
		if err := w.checkConsistency(); err != nil {
			t.Fatalf("after add %d: %v", i, err)
		}
	}
	n, cells := w.stats()
	if n != 2 || cells != 2 {
		t.Fatalf("window = %d/%d, want 2/2 (cap 1, two cells)", n, cells)
	}
	snap := w.snapshot()
	if len(snap.Records) != 2 {
		t.Fatalf("snapshot = %d records, want 2", len(snap.Records))
	}
	// Each cell keeps only its newest sample: 10 (cell 0) and 11 (cell 1).
	if snap.Records[0].ThroughputMbps != 10 || snap.Records[1].ThroughputMbps != 11 {
		t.Fatalf("snapshot = %+v, want newest per cell (10, 11)", snap.Records)
	}
}

// Property check: under a randomized workload the ring/cell-aggregate
// invariant holds after every add, no cell ever exceeds the cap, and
// snapshot agrees with stats.
func TestWindowCellCapRandomized(t *testing.T) {
	src := rng.New(42).SplitLabeled("window-cap")
	w := newWindow(32, 3)
	for i := 0; i < 2000; i++ {
		// Skewed cell choice: cell 0 gets half the traffic, like a
		// stationary crowd parked on one hotspot.
		cell := 0
		if src.Float64() > 0.5 {
			cell = 1 + src.Intn(6)
		}
		w.add(capRec(cell*2, src.Range(0, 2000)))
		if err := w.checkConsistency(); err != nil {
			t.Fatalf("after add %d: %v", i, err)
		}
		for k, agg := range w.cells {
			if agg.n > 3 {
				t.Fatalf("add %d: cell %v holds %d > cap 3", i, k, agg.n)
			}
		}
	}
	snap := w.snapshot()
	n, _ := w.stats()
	if len(snap.Records) != n {
		t.Fatalf("snapshot %d records, stats says %d", len(snap.Records), n)
	}
}

// CellCap=0 must preserve the uncapped behavior exactly (the default
// for existing deployments).
func TestWindowCellCapDisabled(t *testing.T) {
	w := newWindow(8, 0)
	for i := 0; i < 8; i++ {
		w.add(capRec(0, float64(i)))
	}
	if n, cells := w.stats(); n != 8 || cells != 1 {
		t.Fatalf("uncapped window = %d/%d, want 8/1", n, cells)
	}
	if err := w.checkConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Config wiring: CellCap flows from ingest.Config into the window.
func TestConfigCellCap(t *testing.T) {
	ing := newTestIngestor(t, Config{QueueSize: 64, WindowSize: 16, CellCap: 4})
	if ing.win.cellCap != 4 {
		t.Fatalf("window cellCap = %d, want 4", ing.win.cellCap)
	}
	s := validSample()
	for i := 0; i < 10; i++ {
		s.Second = i
		ing.Ingest([]Sample{s})
	}
	ing.Drain()
	if n, cells := ing.windowStats(); n != 4 || cells != 1 {
		t.Fatalf("window = %d/%d, want 4/1 (one parked UE, cap 4)", n, cells)
	}
	ing.mu.Lock()
	err := ing.win.checkConsistency()
	ing.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// checkConsistency verifies the ring/cell-aggregate invariant: the cell
// aggregates describe exactly the live ring records — same counts, same
// throughput sums, same slots — and no cell exceeds the cap.
func (w *window) checkConsistency() error {
	type ref struct {
		n     int
		sum   float64
		slots []int
	}
	want := map[geo.GridKey]*ref{}
	liveSeen := 0
	for i := 0; i < w.n; i++ {
		slot := (w.head + i) % len(w.recs)
		if w.dead[slot] {
			continue
		}
		liveSeen++
		k := cellOf(&w.recs[slot])
		r := want[k]
		if r == nil {
			r = &ref{}
			want[k] = r
		}
		r.n++
		r.sum += w.recs[slot].ThroughputMbps
		r.slots = append(r.slots, slot)
	}
	if liveSeen != w.live {
		return fmt.Errorf("live=%d but %d live slots in ring", w.live, liveSeen)
	}
	if len(want) != len(w.cells) {
		return fmt.Errorf("cells=%d but ring holds %d distinct cells", len(w.cells), len(want))
	}
	for k, r := range want {
		agg := w.cells[k]
		if agg == nil {
			return fmt.Errorf("cell %v present in ring but missing aggregate", k)
		}
		if agg.n != r.n {
			return fmt.Errorf("cell %v: agg.n=%d, ring has %d", k, agg.n, r.n)
		}
		if diff := agg.sum - r.sum; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("cell %v: agg.sum=%v, ring sums to %v", k, agg.sum, r.sum)
		}
		if w.cellCap > 0 && agg.n > w.cellCap {
			return fmt.Errorf("cell %v: %d live records exceeds cap %d", k, agg.n, w.cellCap)
		}
		if len(agg.slots) != len(r.slots) {
			return fmt.Errorf("cell %v: %d queued slots, ring has %d", k, len(agg.slots), len(r.slots))
		}
		for i := range r.slots {
			if agg.slots[i] != r.slots[i] {
				return fmt.Errorf("cell %v: slot queue %v, ring order %v", k, agg.slots, r.slots)
			}
		}
	}
	return nil
}
