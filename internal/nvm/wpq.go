package nvm

// WPQ models the ADR write-pending queue occupancy at the memory
// controller (Table I: 32 entries). Writes accepted into the WPQ are in
// the persistence domain — ADR guarantees they reach PM on power loss —
// so the functional store (PM) is updated at acceptance; the WPQ model
// tracks occupancy and backpressure statistics that the drain pipeline's
// bandwidth model reflects in timing.
type WPQ struct {
	capacity  int
	occupied  int
	accepted  uint64
	retired   uint64
	highWater int
	fullHits  uint64 // accepts that found the queue full (backpressure)
}

// NewWPQ returns a queue with the given entry count.
func NewWPQ(entries int) *WPQ {
	if entries <= 0 {
		entries = 1
	}
	return &WPQ{capacity: entries}
}

// Reset empties the queue and zeroes its statistics, keeping the
// capacity: the state NewWPQ returns.
func (w *WPQ) Reset() { *w = WPQ{capacity: w.capacity} }

// Accept records one 64B write entering the WPQ. If the queue is full,
// the oldest write retires first (the device absorbs it) and the event
// counts as backpressure.
func (w *WPQ) Accept() {
	if w.occupied >= w.capacity {
		w.fullHits++
		w.occupied--
		w.retired++
	}
	w.occupied++
	w.accepted++
	if w.occupied > w.highWater {
		w.highWater = w.occupied
	}
}

// Retire records n writes leaving the WPQ for the PM device.
func (w *WPQ) Retire(n int) {
	if n > w.occupied {
		n = w.occupied
	}
	w.occupied -= n
	w.retired += uint64(n)
}

// Occupancy returns the current entry count.
func (w *WPQ) Occupancy() int { return w.occupied }

// Capacity returns the configured entry count.
func (w *WPQ) Capacity() int { return w.capacity }

// Stats returns (accepted, retired, high-water mark, full-queue hits).
func (w *WPQ) Stats() (accepted, retired uint64, highWater int, fullHits uint64) {
	return w.accepted, w.retired, w.highWater, w.fullHits
}
