package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// sizes covers n = 0, 1, fewer indexes than workers, exact multiples of
// a chunk (n/(8·workers) indexes: 64 and 4 096 at 2 workers) and counts
// that leave a partial last chunk.
var sizes = []int{0, 1, 2, 3, 7, 16, 63, 64, 65, 257, 1000, 4096, 4099}

// workerCounts includes the GOMAXPROCS default (0), one worker and more
// workers than cores.
func workerCounts() []int {
	return []int{0, 1, 2, 3, 2*runtime.GOMAXPROCS(0) + 3}
}

// TestForRunsEveryIndexOnce: every index in [0, n) runs exactly once,
// whatever the worker count.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range workerCounts() {
		for _, n := range sizes {
			runs := make([]atomic.Int32, n)
			For(n, workers, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForWorkerIDsOwned: every index runs exactly once, worker ids lie
// in [0, workers) after clamping to n, and no two calls with the same
// worker id ever overlap — the guarantee per-worker scratch relies on.
func TestForWorkerIDsOwned(t *testing.T) {
	for _, workers := range workerCounts() {
		for _, n := range sizes {
			limit := workers
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			limit = max(1, min(limit, n))
			runs := make([]atomic.Int32, n)
			busy := make([]atomic.Int32, limit)
			var bad atomic.Int64
			bad.Store(-1)
			ForWorker(n, workers, func(worker, i int) {
				if worker < 0 || worker >= limit {
					bad.Store(int64(i))
					return
				}
				if busy[worker].Add(1) != 1 {
					bad.Store(int64(i))
				}
				runs[i].Add(1)
				runtime.Gosched()
				busy[worker].Add(-1)
			})
			if i := bad.Load(); i >= 0 {
				t.Fatalf("workers=%d n=%d: index %d ran on a worker id out of [0, %d) or already busy", workers, n, i, limit)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}
