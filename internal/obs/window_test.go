package obs

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an atomic injectable clock for window tests — swapped
// in before any concurrent use, advanced atomically during it.
type fakeClock struct {
	ns atomic.Int64
}

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestWindowedQuantileProperty is the windowed analogue of the
// histogram property test: samples recorded across many sub-window
// boundaries, then WindowSnapshot quantiles checked against the exact
// reference over exactly the samples still inside the window. Because
// a merged snapshot is a plain bucket-sum, the one-bucket (≤6.25%)
// error bound must carry over unchanged.
func TestWindowedQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(10_000_000) },
		"heavytail": func() int64 { return int64(1000 * (1 / (rng.Float64() + 1e-6))) },
		"linear":    func() int64 { return rng.Int63n(16) },
	}
	quantiles := []float64{0, 0.5, 0.95, 0.99, 1}
	const epoch = 10 * time.Millisecond
	const span = 100 * time.Millisecond
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				clk := &fakeClock{}
				clk.ns.Store(int64(rng.Int63n(1 << 40))) // arbitrary start phase
				w := NewWindowedHistogram(NewHistogram(), epoch, span)
				w.now = clk.now

				// Record batches over 30 epochs — three full window
				// lengths, so early samples must expire.
				type stamped struct {
					epoch int
					v     int64
				}
				var all []stamped
				startEpoch := clk.ns.Load() / int64(epoch)
				for e := 0; e < 30; e++ {
					for i := 0; i < 1+rng.Intn(200); i++ {
						v := gen()
						all = append(all, stamped{e, v})
						w.Record(v)
					}
					clk.advance(epoch)
				}
				// The clock now sits at startEpoch+30; the window covers
				// epochs (cur-k, cur]. Compute k the way the code does.
				cur := int(clk.ns.Load()/int64(epoch) - startEpoch)
				k := int(span / epoch) // span divides evenly here
				var want []int64
				var wantSum int64
				for _, s := range all {
					if s.epoch > cur-k && s.epoch <= cur {
						want = append(want, s.v)
						wantSum += s.v
					}
				}
				snap := w.WindowSnapshot(span)
				if snap.Count != int64(len(want)) {
					t.Fatalf("window count %d, want %d (cur=%d k=%d)", snap.Count, len(want), cur, k)
				}
				if snap.Sum != wantSum {
					t.Fatalf("window sum %d, want %d", snap.Sum, wantSum)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				for _, q := range quantiles {
					est := snap.Quantile(q)
					if len(want) == 0 {
						if est != 0 {
							t.Fatalf("empty window q=%v answered %d", q, est)
						}
						continue
					}
					exact := exactQuantile(want, q)
					if est < exact {
						t.Fatalf("%s q=%v: estimate %d below exact %d", name, q, est, exact)
					}
					if float64(est-exact) > float64(exact)/16 {
						t.Fatalf("%s q=%v: estimate %d vs exact %d exceeds one bucket's relative error", name, q, est, exact)
					}
				}
				// The lifetime side must have seen everything.
				if got := w.Snapshot().Count; got != int64(len(all)) {
					t.Fatalf("lifetime count %d, want %d", got, len(all))
				}
			}
		})
	}
}

// TestWindowedExpiry: samples older than the window vanish from
// WindowSnapshot but never from the lifetime histogram, including the
// full-expiry case where the ring has wrapped several times idle.
func TestWindowedExpiry(t *testing.T) {
	clk := &fakeClock{}
	clk.ns.Store(int64(5 * time.Second))
	w := NewWindowedHistogram(NewHistogram(), 10*time.Millisecond, 50*time.Millisecond)
	w.now = clk.now

	w.Record(1000)
	w.Record(2000)
	if got := w.WindowSnapshot(50 * time.Millisecond).Count; got != 2 {
		t.Fatalf("fresh samples missing: count %d", got)
	}

	// Advance one epoch: still inside the window.
	clk.advance(10 * time.Millisecond)
	w.Record(3000)
	if got := w.WindowSnapshot(50 * time.Millisecond).Count; got != 3 {
		t.Fatalf("count after one epoch %d, want 3", got)
	}
	// A narrower window sees only the current epoch.
	if got := w.WindowSnapshot(10 * time.Millisecond).Count; got != 1 {
		t.Fatalf("narrow window count %d, want 1", got)
	}

	// Advance past the full span without recording: everything expires,
	// even though the stale sub-histograms still sit in their slots.
	clk.advance(60 * time.Millisecond)
	snap := w.WindowSnapshot(50 * time.Millisecond)
	if snap.Count != 0 || snap.Quantile(0.99) != 0 {
		t.Fatalf("expired window not empty: count=%d p99=%d", snap.Count, snap.Quantile(0.99))
	}
	if got := w.Snapshot().Count; got != 3 {
		t.Fatalf("lifetime lost samples: %d, want 3", got)
	}

	// Wrap the ring many times over; slot reuse must overwrite, not
	// accumulate, the retired epoch's counts.
	for i := 0; i < 40; i++ {
		clk.advance(10 * time.Millisecond)
		w.Record(int64(i))
	}
	if got := w.WindowSnapshot(50 * time.Millisecond).Count; got != 5 {
		t.Fatalf("post-wrap window count %d, want 5", got)
	}
	if got := w.Snapshot().Count; got != 43 {
		t.Fatalf("post-wrap lifetime count %d, want 43", got)
	}
}

// TestWindowedConcurrent is the -race stress: writers record while the
// clock advances (forcing rotations) and readers take window and
// lifetime snapshots. The lifetime count must be exact; the window
// count can lose boundary samples to rotation races but must never
// exceed the lifetime count or go negative.
func TestWindowedConcurrent(t *testing.T) {
	clk := &fakeClock{}
	clk.ns.Store(int64(time.Hour))
	w := NewWindowedHistogram(NewHistogram(), time.Millisecond, 10*time.Millisecond)
	w.now = clk.now

	const writers, perWriter = 8, 4000
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				w.Record(rng.Int63n(1_000_000))
			}
		}(int64(wi))
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the rotator: advances the clock across many epochs
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			clk.advance(time.Millisecond / 4)
		}
	}()
	for ri := 0; ri < 4; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ws := w.WindowSnapshot(10 * time.Millisecond)
				life := w.Snapshot()
				if ws.Count < 0 || ws.Count > life.Count {
					t.Errorf("window count %d outside [0, lifetime %d]", ws.Count, life.Count)
					return
				}
				if q := ws.Quantile(0.99); q < 0 {
					t.Error("negative windowed quantile")
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := w.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("lifetime lost samples under race: %d, want %d", got, writers*perWriter)
	}
}

// TestCumLEConservative pins the conservative direction of the
// /metrics bucket counts: a bucket straddling the bound counts as
// above it, never as ≤ bound.
func TestCumLEConservative(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 100, 1000, 10_000} {
		h.Record(v)
	}
	s := h.Snapshot()
	// 10_000 sits in a straddling bucket (its bucketMax > 10_000), so
	// the conservative rule leaves it out of its own value's count.
	want := int64(4)
	if bucketMax(bucketIndex(10_000)) > 10_000 {
		want = 3
	}
	if got := s.cumLE(10_000); got != want {
		t.Fatalf("cumLE(10000)=%d, want %d", got, want)
	}
	if got := s.cumLE(0); got != 0 {
		t.Fatalf("cumLE(0)=%d, want 0", got)
	}
	if got := s.cumLE(1 << 40); got != 4 {
		t.Fatalf("cumLE(huge)=%d, want 4", got)
	}
	// Values in the exact linear region: the bound is sharp.
	h2 := NewHistogram()
	for v := int64(0); v < 16; v++ {
		h2.Record(v)
	}
	s2 := h2.Snapshot()
	if got := s2.cumLE(7); got != 8 {
		t.Fatalf("linear cumLE(7)=%d, want 8", got)
	}
}
