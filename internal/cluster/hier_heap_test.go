package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// aggloModel is a randomized clustering problem shared by the heap driver
// and the brute-force reference: items carry random base similarities,
// merged clusters score by average linkage over their members, and clusters
// grow frozen once they exceed a member bound. With reuse set, a merge
// keeps the smaller id instead of minting a fresh one, exercising the
// driver's version bump on reused ids.
type aggloModel struct {
	base    [][]float64 // symmetric item-level similarities
	members map[int][]int
	next    int
	maxSize int
	minSim  float64
	reuse   bool
	merges  []aggloMerge // merge log, for cross-checking the sequence
}

// aggloMerge is one logged merge: the two ids, the similarity they merged
// at, and the resulting id.
type aggloMerge struct {
	a, b, id int
	sim      float64
}

func newAggloModel(rng *rand.Rand) *aggloModel {
	n := 4 + rng.Intn(20)
	base := make([][]float64, n)
	for i := range base {
		base[i] = make([]float64, n)
	}
	// Force exact ties often, to exercise the deterministic tie-breaking
	// path: quantize some or all pairs to a coarse grid, or make every
	// pair score the same.
	ties := rng.Intn(3)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := rng.Float64()
			switch {
			case ties == 0 && rng.Intn(2) == 0, ties == 1:
				s = math.Round(s*4) / 4
			case ties == 2:
				s = 0.5
			}
			base[i][j], base[j][i] = s, s
		}
	}
	m := &aggloModel{
		base:    base,
		members: map[int][]int{},
		next:    n,
		maxSize: 2 + rng.Intn(4),
		minSim:  rng.Float64() * 0.5,
		reuse:   rng.Intn(2) == 0,
	}
	for i := 0; i < n; i++ {
		m.members[i] = []int{i}
	}
	return m
}

func (m *aggloModel) ids() []int {
	ids := make([]int, len(m.base))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (m *aggloModel) sim(a, b int) float64 {
	sum := 0.0
	for _, x := range m.members[a] {
		for _, y := range m.members[b] {
			sum += m.base[x][y]
		}
	}
	return sum / float64(len(m.members[a])*len(m.members[b]))
}

func (m *aggloModel) merge(a, b int) int {
	id := m.next
	if m.reuse {
		id = min(a, b)
	} else {
		m.next++
	}
	sim := m.sim(a, b)
	union := append(append([]int(nil), m.members[a]...), m.members[b]...)
	delete(m.members, a)
	delete(m.members, b)
	m.members[id] = union
	m.merges = append(m.merges, aggloMerge{a: a, b: b, id: id, sim: sim})
	return id
}

func (m *aggloModel) canMerge(a, b int) bool {
	return len(m.members[a]) < m.maxSize && len(m.members[b]) < m.maxSize
}

func (m *aggloModel) driver() *Agglomerative {
	return &Agglomerative{
		Sim:      m.sim,
		Merge:    m.merge,
		CanMerge: m.canMerge,
		MinSim:   m.minSim,
	}
}

// rescanRun is the brute-force O(k^2)-per-merge reference: every round it
// rescans all live admissible pairs in ascending (a, b) id order and takes
// the first strict maximum — exactly the heap driver's documented order
// (max similarity, ties to the smallest id pair).
func rescanRun(ag *Agglomerative, ids []int) []int {
	live := map[int]bool{}
	order := append([]int(nil), ids...)
	for _, id := range ids {
		live[id] = true
	}
	for {
		cur := make([]int, 0, len(live))
		for id := range live {
			cur = append(cur, id)
		}
		sort.Ints(cur)
		bestA, bestB := -1, -1
		best := math.Inf(-1)
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				if ag.CanMerge != nil && !ag.CanMerge(cur[i], cur[j]) {
					continue
				}
				if s := ag.Sim(cur[i], cur[j]); s > best {
					best, bestA, bestB = s, cur[i], cur[j]
				}
			}
		}
		if bestA < 0 || best < ag.MinSim {
			break
		}
		merged := ag.Merge(bestA, bestB)
		delete(live, bestA)
		delete(live, bestB)
		live[merged] = true
		order = append(order, merged)
	}
	out := make([]int, 0, len(live))
	for _, id := range order {
		if live[id] {
			out = append(out, id)
			live[id] = false
		}
	}
	return out
}

// TestAgglomerativeHeapMatchesRescan drives the lazy-heap Run and the
// brute-force rescan over identical randomized inputs (tie-heavy, with
// fresh and reused merge ids) and requires the exact same merge sequence —
// every (a, b, merged id, similarity) step in order — and survivors. Each
// heap run goes through one reused driver value, so buffers left over from
// a previous, differently sized problem are exercised too.
func TestAgglomerativeHeapMatchesRescan(t *testing.T) {
	var ag Agglomerative
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mHeap := newAggloModel(rng)
		// Rebuild the identical model for the reference run.
		mRef := newAggloModel(rand.New(rand.NewSource(seed)))

		ag.Sim, ag.Merge, ag.CanMerge, ag.MinSim = mHeap.sim, mHeap.merge, mHeap.canMerge, mHeap.minSim
		gotOut := ag.Run(mHeap.ids())
		wantOut := rescanRun(mRef.driver(), mRef.ids())

		if !reflect.DeepEqual(mHeap.merges, mRef.merges) {
			t.Logf("seed %d: merge sequence diverged\nheap:   %v\nrescan: %v",
				seed, mHeap.merges, mRef.merges)
			return false
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Logf("seed %d: survivors diverged\nheap:   %v\nrescan: %v",
				seed, gotOut, wantOut)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 150,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAgglomerativeSimArgumentOrder pins the order Run passes a pair to
// Sim: an input id against the input ids after it, then each merged id
// against the survivors. Callers' similarities need not be bitwise
// symmetric (LaMoFinder's SO sums in pattern-vertex order of its first
// argument), so scoring (b, a) instead of (a, b) could change the merges.
func TestAgglomerativeSimArgumentOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := newAggloModel(rand.New(rand.NewSource(seed)))
		ids := m.ids()
		pos := map[int]int{}
		for i, id := range ids {
			pos[id] = i
		}
		merged := -1
		ag := m.driver()
		ag.Sim = func(a, b int) float64 {
			if merged < 0 && pos[a] >= pos[b] || merged >= 0 && a != merged {
				t.Fatalf("seed %d: Sim(%d, %d) after merge into %d", seed, a, b, merged)
			}
			return m.sim(a, b)
		}
		ag.Merge = func(a, b int) int {
			merged = m.merge(a, b)
			return merged
		}
		ag.Run(ids)
	}
}
