package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randScores fills an n×n score matrix from rng. With quantize set, scores
// sit on a coarse grid so rows and columns tie often, which is where a
// solver that changes its scan order would pick a different optimum.
func randScores(rng *rand.Rand, n int, quantize bool) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			v := rng.Float64()
			if quantize {
				v = math.Round(v*3) / 3
			}
			s[i][j] = v
		}
	}
	return s
}

// checkAssignerMatchesRef solves s with the reference, with MaxAssignment
// and with the reused Assigner as, and fails unless all three agree on the
// assignment and the total bit for bit.
func checkAssignerMatchesRef(t *testing.T, as *Assigner, s [][]float64) {
	t.Helper()
	n := len(s)
	wantAssign, wantTotal := refMaxAssignment(s)
	gotAssign, gotTotal := MaxAssignment(s)
	if !reflect.DeepEqual(gotAssign, wantAssign) || math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
		t.Fatalf("MaxAssignment(%v) = %v, %v; reference %v, %v", s, gotAssign, gotTotal, wantAssign, wantTotal)
	}
	flat := make([]float64, 0, n*n)
	for _, row := range s {
		flat = append(flat, row...)
	}
	scratchAssign, scratchTotal := as.Solve(flat, n)
	if !reflect.DeepEqual(scratchAssign, wantAssign) || math.Float64bits(scratchTotal) != math.Float64bits(wantTotal) {
		t.Fatalf("Assigner.Solve(%v) = %v, %v; reference %v, %v", s, scratchAssign, scratchTotal, wantAssign, wantTotal)
	}
}

// TestAssignerMatchesReference pins the Assigner to the historical solver
// on random and tie-heavy matrices of every size the labeler sees. One
// Assigner serves all sizes in a shuffled order, so stale scratch from a
// larger or smaller previous problem would show up as a mismatch.
func TestAssignerMatchesReference(t *testing.T) {
	var fresh Assigner
	checkAssignerMatchesRef(t, &fresh, nil)
	rng := rand.New(rand.NewSource(7))
	var as Assigner
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8)
		checkAssignerMatchesRef(t, &as, randScores(rng, n, trial%2 == 0))
	}
}

// FuzzAssignerMatchesReference is the fuzz form of the reference check:
// the seed picks the matrix, size selects n in 1..7, and quantize makes
// the scores tie-heavy. The checked-in corpus (testdata/fuzz) pins a few
// tie-heavy and random cases for plain `go test` runs.
func FuzzAssignerMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(2), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, quantize bool) {
		n := 1 + int(size)%7
		rng := rand.New(rand.NewSource(seed))
		var as Assigner
		checkAssignerMatchesRef(t, &as, randScores(rng, n, quantize))
		// A second, smaller problem through the same Assigner.
		checkAssignerMatchesRef(t, &as, randScores(rng, 1+rng.Intn(n), quantize))
	})
}
