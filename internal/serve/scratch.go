package serve

import (
	"sync"

	"lamofinder/internal/predict"
)

// scratch is the per-request working set of the predict handler: parsed
// protein names, resolved vertex ids, per-protein ranking slices, and the
// response buffer. Pooling it makes a predict request allocation-free
// after warm-up — every slice is reused at its high-water capacity.
type scratch struct {
	proteins []string
	ids      []int
	rankings [][]predict.Ranked
	buf      []byte
}

// scratchCap bounds the response buffer a pooled scratch may retain, so
// one giant batch response does not pin its buffer forever.
const scratchCap = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if cap(sc.buf) > scratchCap {
		sc.buf = nil
	}
	// Drop references into the artifact's rankings and the request's
	// strings; keep the backing arrays.
	for i := range sc.rankings {
		sc.rankings[i] = nil
	}
	for i := range sc.proteins {
		sc.proteins[i] = ""
	}
	sc.proteins = sc.proteins[:0]
	sc.ids = sc.ids[:0]
	sc.rankings = sc.rankings[:0]
	sc.buf = sc.buf[:0]
	scratchPool.Put(sc)
}
