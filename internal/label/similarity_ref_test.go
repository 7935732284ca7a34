package label

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lamofinder/internal/cluster"
	"lamofinder/internal/graph"
)

// refOccurrence is the historical allocating Sim.Occurrence, kept verbatim
// (receiver turned into the first parameter) as the reference oracle for
// the scratch-taking core in similarity.go. The core must return the same
// SO bits and the same pairing: clustering merges by SO and re-orders
// occurrences by the pairing, so any drift changes the labeled output.
func refOccurrence(s *Sim, labelsA, labelsB [][]int32, sym *Symmetry) (so float64, pairing []int) {
	nv := len(labelsA)
	if sym.ExactOrbitPairing() {
		pairing = make([]int, nv)
		total := 0.0
		for _, orb := range sym.Orbits {
			if len(orb) == 1 {
				v := orb[0]
				pairing[v] = v
				total += s.Vertex(labelsA[v], labelsB[v])
				continue
			}
			score := make([][]float64, len(orb))
			for i, va := range orb {
				score[i] = make([]float64, len(orb))
				for j, vb := range orb {
					score[i][j] = s.Vertex(labelsA[va], labelsB[vb])
				}
			}
			assign, sum := cluster.MaxAssignment(score)
			for i, va := range orb {
				pairing[va] = orb[assign[i]]
			}
			total += sum
		}
		return total / float64(nv), pairing
	}
	// Automorphism search: cache SV values, then score each permutation.
	sv := make([][]float64, nv)
	for i := 0; i < nv; i++ {
		sv[i] = make([]float64, nv)
		for j := 0; j < nv; j++ {
			sv[i][j] = -1
		}
	}
	get := func(i, j int) float64 {
		if sv[i][j] < 0 {
			sv[i][j] = s.Vertex(labelsA[i], labelsB[j])
		}
		return sv[i][j]
	}
	best := -1.0
	var bestPerm []int
	for _, perm := range sym.Auts {
		total := 0.0
		for v := 0; v < nv; v++ {
			total += get(v, perm[v])
		}
		if total > best {
			best = total
			bestPerm = perm
		}
	}
	pairing = append([]int(nil), bestPerm...)
	return best / float64(nv), pairing
}

// refShapes returns the pattern families the reference check covers:
// stars, paths and cliques (orbit pairing is exact) and cycles (pairing
// ranges over the enumerated automorphisms), on 3..7 vertices.
func refShapes() map[string]*graph.Dense {
	out := map[string]*graph.Dense{}
	for n := 3; n <= 7; n++ {
		star, path, clique, cycle := graph.NewDense(n), graph.NewDense(n), graph.NewDense(n), graph.NewDense(n)
		for v := 1; v < n; v++ {
			star.AddEdge(0, v)
			path.AddEdge(v-1, v)
			cycle.AddEdge(v-1, v)
			for u := 0; u < v; u++ {
				clique.AddEdge(u, v)
			}
		}
		cycle.AddEdge(n-1, 0)
		out[fmt.Sprintf("star%d", n)] = star
		out[fmt.Sprintf("path%d", n)] = path
		out[fmt.Sprintf("clique%d", n)] = clique
		out[fmt.Sprintf("cycle%d", n)] = cycle
	}
	return out
}

// TestOccurrenceScratchMatchesReference pins the scratch core, and the
// Occurrence wrapper over it, to the historical implementation on every
// shape family. Labels come from the whole term space or, for tie-heavy
// trials, from three terms, so equal SV scores are common. One scratch
// serves every shape and size in turn, as a clustering worker's does.
func TestOccurrenceScratchMatchesReference(t *testing.T) {
	pe := testExample(t)
	s := NewSim(pe.Ontology, pe.Weights())
	terms := allTerms(pe)
	few := terms[:3]
	shapes := refShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	rng := rand.New(rand.NewSource(41))
	var sc occScratch
	var sawExact, sawAuts bool
	for trial := 0; trial < 1500; trial++ {
		name := names[rng.Intn(len(names))]
		sy := NewSymmetry(shapes[name])
		if sy.ExactOrbitPairing() {
			sawExact = true
		} else {
			sawAuts = true
		}
		pool := terms
		if trial%2 == 0 {
			pool = few
		}
		n := shapes[name].N()
		la, lb := randomLabels(n, pool, rng), randomLabels(n, pool, rng)
		wantSO, wantPairing := refOccurrence(s, la, lb, sy)

		gotSO := s.occurrence(la, lb, sy, &sc)
		if math.Float64bits(gotSO) != math.Float64bits(wantSO) || !reflect.DeepEqual(sc.pairing, wantPairing) {
			t.Fatalf("%s trial %d: scratch core = %v %v, reference %v %v",
				name, trial, gotSO, sc.pairing, wantSO, wantPairing)
		}
		so, pairing := s.Occurrence(la, lb, sy)
		if math.Float64bits(so) != math.Float64bits(wantSO) || !reflect.DeepEqual(pairing, wantPairing) {
			t.Fatalf("%s trial %d: Occurrence = %v %v, reference %v %v",
				name, trial, so, pairing, wantSO, wantPairing)
		}
	}
	if !sawExact || !sawAuts {
		t.Fatalf("shape mix missed a path: exact=%v automorphisms=%v", sawExact, sawAuts)
	}
}
