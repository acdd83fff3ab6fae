package ingest

import (
	"lumos5g/internal/dataset"
	"lumos5g/internal/geo"
)

// The sliding refit window: a count-bounded ring of accepted records
// plus per-cell aggregates over the same 2x2-pixel grid cells
// engine.Quantize keys by (GridKey{Col: PixelX/2, Row: PixelY/2}) —
// the cells the fleet router shards on, so a replica's window
// describes exactly the map region it owns. When the ring wraps, the
// evicted record's cell aggregate shrinks with it, keeping the cell
// view consistent with the record view at every step.
//
// With a per-cell cap (cellCap > 0) a parked UE cannot dominate the
// window: once a cell holds cellCap live samples, admitting another
// sample for that cell evicts the cell's oldest sample first
// (oldest-in-cell eviction). Mid-ring eviction is a tombstone — the
// slot stays occupied until the ring head passes it — so ring order
// is untouched and the aggregates always describe exactly the live
// records.

type cellAgg struct {
	n     int
	sum   float64
	slots []int // live ring slots holding this cell's records, oldest first
}

type window struct {
	recs    []dataset.Record // ring: oldest at head when full
	dead    []bool           // tombstones from per-cell eviction
	head    int
	n       int // occupied ring slots, live + tombstoned
	live    int // live records (what snapshot returns)
	cellCap int // max live records per cell; 0 = unlimited
	cells   map[geo.GridKey]*cellAgg
}

func newWindow(capacity, cellCap int) *window {
	return &window{
		recs:    make([]dataset.Record, capacity),
		dead:    make([]bool, capacity),
		cellCap: cellCap,
		cells:   map[geo.GridKey]*cellAgg{},
	}
}

func cellOf(r *dataset.Record) geo.GridKey {
	return geo.GridKey{Col: r.PixelX / 2, Row: r.PixelY / 2}
}

// unwind removes slot's live record from its cell aggregate. The slot
// is normally its cell's oldest live record (slots queues are arrival-
// ordered and both eviction paths proceed oldest-first), so the pop is
// O(1); the scan fallback keeps the aggregates honest regardless.
func (w *window) unwind(slot int) {
	old := &w.recs[slot]
	k := cellOf(old)
	agg := w.cells[k]
	if agg == nil {
		return
	}
	agg.n--
	agg.sum -= old.ThroughputMbps
	if len(agg.slots) > 0 && agg.slots[0] == slot {
		agg.slots = agg.slots[1:]
	} else {
		for i, s := range agg.slots {
			if s == slot {
				agg.slots = append(agg.slots[:i], agg.slots[i+1:]...)
				break
			}
		}
	}
	if agg.n <= 0 {
		delete(w.cells, k)
	}
	w.live--
}

func (w *window) add(r dataset.Record) {
	k := cellOf(&r)
	if w.cellCap > 0 {
		if agg := w.cells[k]; agg != nil && agg.n >= w.cellCap {
			// Oldest-in-cell eviction: tombstone the cell's oldest live
			// slot so the incoming sample replaces it logically.
			slot := agg.slots[0]
			w.unwind(slot)
			w.dead[slot] = true
		}
	}
	var slot int
	if w.n == len(w.recs) {
		// Ring is full: reclaim the head slot. A tombstoned head was
		// already unwound by a per-cell eviction.
		slot = w.head
		if w.dead[slot] {
			w.dead[slot] = false
		} else {
			w.unwind(slot)
		}
		w.head = (w.head + 1) % len(w.recs)
	} else {
		slot = (w.head + w.n) % len(w.recs)
		w.n++
	}
	w.recs[slot] = r
	agg := w.cells[k]
	if agg == nil {
		agg = &cellAgg{}
		w.cells[k] = agg
	}
	agg.n++
	agg.sum += r.ThroughputMbps
	agg.slots = append(agg.slots, slot)
	w.live++
}

// snapshot copies the live window into a Dataset, oldest first, for
// training. The copy means refit can train outside the ingest lock.
func (w *window) snapshot() *dataset.Dataset {
	d := &dataset.Dataset{Records: make([]dataset.Record, 0, w.live)}
	for i := 0; i < w.n; i++ {
		slot := (w.head + i) % len(w.recs)
		if w.dead[slot] {
			continue
		}
		d.Records = append(d.Records, w.recs[slot])
	}
	return d
}

func (w *window) stats() (samples, cells int) {
	return w.live, len(w.cells)
}
