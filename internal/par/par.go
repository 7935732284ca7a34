// Package par provides the deterministic worker-pool primitives shared by
// the parallel stages of the pipeline (similarity matrices, ESU root
// fan-out, per-branch experiment stages). Determinism is preserved by
// construction: tasks are identified by index, results are written to
// index-addressed slots, and work partitioning never depends on the worker
// count — only the schedule does, which no caller observes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob: n when positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(i) for every i in [0, n) on up to workers goroutines. fn must
// confine its writes to data owned by index i (slot i of a result slice);
// under that contract the result is independent of the schedule. Do returns
// after every call has completed. workers <= 0 resolves via Workers.
func Do(n, workers int, fn func(i int)) {
	DoWorker(n, workers, func(_, i int) { fn(i) })
}

// DoWorker is Do that also passes fn the index, in [0, Workers(workers)),
// of the goroutine running task i, so callers can keep per-worker scratch
// in a pre-sized slice. Which worker runs which task depends on the
// schedule: the worker index may select scratch, never reach a result.
func DoWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// NumChunks returns the number of fixed-size chunks that partition [0, n).
func NumChunks(n, size int) int {
	if n <= 0 || size <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// Chunks partitions [0, n) into fixed-size chunks and runs fn(chunk, lo, hi)
// for each half-open range [lo, hi) on up to workers goroutines. The chunk
// boundaries depend only on n and size — never on workers — so per-chunk
// results (e.g. per-chunk RNG streams seeded by the chunk index) are
// reproducible at any parallelism level.
func Chunks(n, size, workers int, fn func(chunk, lo, hi int)) {
	nc := NumChunks(n, size)
	Do(nc, workers, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
	})
}
