package obs

import (
	"sync/atomic"
	"time"
)

// WindowedHistogram layers a sliding window over a lifetime Histogram:
// every sample is recorded into the lifetime histogram (so cumulative
// exposition and lifetime quantiles are unchanged) and into a ring of
// rotating epoch sub-histograms, from which WindowSnapshot merges the
// recent ones. Because every sub-window shares the lifetime histogram's
// log-linear bucket layout, a merged snapshot is itself an exact
// bucket-sum — the ≤6.25% one-sided quantile error bound carries over
// to windowed quantiles unchanged.
//
// Rotation is clock-driven and lock-free: a slot's epoch number is an
// atomic stamp, and the writer that first touches a slot in a new
// epoch CASes the stamp forward and swaps in a fresh histogram. All
// mutation is atomics, so concurrent Record/rotate/WindowSnapshot is
// race-free by construction. The boundary semantics are deliberately
// loose in the cheap direction: a writer racing a rotation may record
// into the sub-histogram being retired (one sample lost from the
// window — never from the lifetime histogram, which is fed first), and
// window coverage is quantized to epoch granularity, so a
// WindowSnapshot(w) covers between w−epoch and w of history.
type WindowedHistogram struct {
	life  *Histogram
	epoch time.Duration
	slots []windowSlot
	// now is the clock; tests swap it before concurrent use.
	now func() time.Time
}

type windowSlot struct {
	// stamp is the epoch number resident in this slot (-1 = never
	// used). hist is swapped wholesale on rotation rather than zeroed
	// in place, so a snapshot never reads a half-cleared bucket array.
	stamp atomic.Int64
	hist  atomic.Pointer[Histogram]
}

// NewWindowedHistogram builds a window of the given span over life.
// The span is divided into epochs of the given length (minimum 1ms);
// the ring holds span/epoch+1 slots so the newest full span is always
// resident alongside the partially-filled current epoch. life must be
// non-nil — it is the lifetime series (typically a registered one, so
// /metrics exposition is untouched by windowing).
func NewWindowedHistogram(life *Histogram, epoch, span time.Duration) *WindowedHistogram {
	if epoch < time.Millisecond {
		epoch = time.Millisecond
	}
	if span < epoch {
		span = epoch
	}
	n := int(span/epoch) + 1
	if span%epoch != 0 {
		n++
	}
	w := &WindowedHistogram{life: life, epoch: epoch, slots: make([]windowSlot, n), now: clock}
	for i := range w.slots {
		w.slots[i].stamp.Store(-1)
	}
	return w
}

// epochNum is the current epoch number.
func (w *WindowedHistogram) epochNum() int64 {
	return w.now().UnixNano() / int64(w.epoch)
}

// Record adds one sample to the lifetime histogram and the current
// epoch's sub-window.
func (w *WindowedHistogram) Record(v int64) {
	w.life.Record(v)
	e := w.epochNum()
	s := &w.slots[int(e%int64(len(w.slots)))]
	if s.stamp.Load() != e {
		w.advance(s, e)
	}
	if h := s.hist.Load(); h != nil {
		h.Record(v)
	}
}

// Observe records a duration in nanoseconds.
func (w *WindowedHistogram) Observe(d time.Duration) { w.Record(d.Nanoseconds()) }

// advance rotates a slot into epoch e: the CAS winner installs a fresh
// sub-histogram. A loser (or a writer that raced in between CAS and
// the pointer swap) records into whichever histogram it loads — at
// worst one boundary sample leaves the window early.
func (w *WindowedHistogram) advance(s *windowSlot, e int64) {
	for {
		old := s.stamp.Load()
		if old >= e {
			return
		}
		if s.stamp.CompareAndSwap(old, e) {
			s.hist.Store(NewHistogram())
			return
		}
	}
}

// Snapshot returns the lifetime histogram's snapshot.
func (w *WindowedHistogram) Snapshot() HistSnapshot { return w.life.Snapshot() }

// WindowSnapshot merges the sub-windows covering roughly the trailing
// `window` (clamped to the ring's span): the current partial epoch
// plus the ceil(window/epoch)−1 before it. The result is an ordinary
// HistSnapshot — quantiles and mean apply, with the same error bound
// as the lifetime histogram. A window no sample has
// touched answers an empty snapshot (Count 0, quantiles 0).
func (w *WindowedHistogram) WindowSnapshot(window time.Duration) HistSnapshot {
	k := int64(window / w.epoch)
	if window%w.epoch != 0 {
		k++
	}
	if k < 1 {
		k = 1
	}
	if max := int64(len(w.slots)) - 1; k > max {
		k = max
	}
	e := w.epochNum()
	merged := HistSnapshot{buckets: make([]int64, histBuckets)}
	for i := range w.slots {
		st := w.slots[i].stamp.Load()
		if st <= e-k || st > e {
			continue // expired, never used, or (clock skew) future
		}
		h := w.slots[i].hist.Load()
		if h == nil {
			continue
		}
		merged.Sum += h.sum.Load()
		for b := range h.buckets {
			n := h.buckets[b].Load()
			merged.buckets[b] += n
			merged.Count += n
		}
	}
	return merged
}
