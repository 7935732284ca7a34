package par

import (
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-5); got < 1 {
		t.Fatalf("Workers(-5) = %d, want >= 1", got)
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		hits := make([]int32, n)
		Do(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	Do(0, 4, func(int) { t.Fatal("fn called for n=0") })
	Do(-3, 4, func(int) { t.Fatal("fn called for n<0") })
}

func TestChunksBoundariesIndependentOfWorkers(t *testing.T) {
	const n, size = 103, 10
	want := NumChunks(n, size)
	if want != 11 {
		t.Fatalf("NumChunks(103, 10) = %d, want 11", want)
	}
	for _, workers := range []int{1, 4} {
		type rng struct{ lo, hi int }
		got := make([]rng, want)
		Chunks(n, size, workers, func(c, lo, hi int) { got[c] = rng{lo, hi} })
		covered := 0
		for c, r := range got {
			if r.lo != c*size {
				t.Fatalf("workers=%d chunk %d: lo=%d", workers, c, r.lo)
			}
			covered += r.hi - r.lo
		}
		if covered != n {
			t.Fatalf("workers=%d: covered %d of %d", workers, covered, n)
		}
		if got[want-1].hi != n {
			t.Fatalf("workers=%d: last chunk ends at %d", workers, got[want-1].hi)
		}
	}
	if NumChunks(0, 10) != 0 || NumChunks(10, 0) != 0 {
		t.Fatal("NumChunks must be 0 for empty input or non-positive size")
	}
}

func TestDoWorkerIndicesAreExclusive(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 500
		hits := make([]int32, n)
		busy := make([]atomic.Int32, Workers(workers))
		DoWorker(n, workers, func(w, i int) {
			if w < 0 || w >= len(busy) {
				t.Errorf("workers=%d: worker index %d out of range", workers, w)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("workers=%d: worker index %d used by two goroutines at once", workers, w)
			}
			atomic.AddInt32(&hits[i], 1)
			busy[w].Add(-1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}
