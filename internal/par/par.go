// Package par provides the one concurrency primitive the pipeline
// fan-outs share: a bounded worker pool over an index range. Keeping
// it in one place means worker clamping and future fixes (panic
// propagation, instrumentation) apply to every fan-out at once —
// matrix compilation, BIPGen block builds and ILP enumeration all
// call through here.
//
// Workers claim indexes in chunks of about n/(8·workers) consecutive
// indexes per atomic add, not one at a time: the shared claim counter
// then takes a few dozen writes per call however large n is, and two
// workers write neighbouring result slots (blockVal[bi], mask[i]) only
// at the edges of their chunks. Eight chunks per worker leave room to
// even out items of unequal cost.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for i in [0, n) across a bounded worker pool,
// returning once every call finished. workers <= 0 means GOMAXPROCS;
// with one worker (or n <= 1) it degrades to a plain loop. Callers
// must ensure fn(i) writes only state owned by index i.
func For(n, workers int, fn func(int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}

// ForWorker is For with the worker's identity passed to fn — for
// callers that keep per-worker scratch buffers. Worker ids lie in
// [0, workers) after clamping, and the calls of one worker run one at
// a time.
func ForWorker(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := max(1, n/(8*workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(hi, n); i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
