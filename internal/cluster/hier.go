package cluster

import "math"

// Agglomerative performs generic bottom-up hierarchical clustering over n
// items. Sim(a, b) returns the similarity between two current clusters,
// identified by their representative ids; Merge(a, b) combines them and
// returns the id representing the merged cluster (one of a, b, or a fresh
// id the caller manages); CanMerge may veto a proposed merge. Ids must be
// non-negative: the driver keeps per-id state in slices indexed by id.
//
// LaMoFinder uses this driver with occurrence-cluster ids, SO similarity,
// and the border-informative-FC stopping rule. The simpler linkage-based
// API below (HierarchicalLinkage) serves tests and generic uses.
//
// The driver's working memory (candidate heap, versions, creation order)
// lives in the value and is reused by later Run calls, so one Agglomerative
// per worker clusters motif after motif without regrowing its buffers. A
// value is not safe for concurrent Run calls.
type Agglomerative struct {
	// Sim returns the similarity of two live clusters. Run calls it with
	// an input id against the input ids after it, then with each merged id
	// against the survivors, so Sim need not be bitwise symmetric.
	Sim func(a, b int) float64
	// Merge fuses cluster b into cluster a (or returns a fresh id).
	Merge func(a, b int) int
	// CanMerge, if non-nil, vetoes merges (e.g. a stopping criterion per
	// cluster). It must be stable: its verdict for a given pair of live
	// ids may not change while both remain live.
	CanMerge func(a, b int) bool
	// MinSim stops the process when the best available pair's similarity
	// falls below this threshold.
	MinSim float64

	heap  candHeap
	ver   []uint32 // ver[id] = current version of a live id; 0 = not live
	order []int    // input ids, then merged ids in creation order
}

// mergeCand is one candidate merge in the lazy max-heap. va and vb snapshot
// the version of each cluster when the candidate was scored; a candidate
// whose clusters have since merged (version bumped) is stale and is skipped
// when popped.
type mergeCand struct {
	sim    float64
	a, b   int // cluster ids, a < b
	va, vb uint32
}

// candHeap is a binary max-heap of candidates ordered by similarity
// (descending), breaking ties by the smaller id pair (a ascending, then b
// ascending), so the merge sequence is a deterministic function of the
// similarity structure alone. It is typed rather than built on
// container/heap so candidates never box through an interface.
type candHeap []mergeCand

func (h candHeap) before(i, j int) bool {
	x, y := &h[i], &h[j]
	if x.sim > y.sim {
		return true
	}
	if x.sim < y.sim {
		return false
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

func (h candHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.before(r, c) {
			c = r
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h candHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapify establishes the heap order over arbitrary contents in O(len).
func (h candHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *candHeap) push(c mergeCand) {
	*h = append(*h, c)
	h.up(len(*h) - 1)
}

func (h *candHeap) pop() mergeCand {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// live reports whether id is a current cluster.
func (ag *Agglomerative) live(id int) bool { return id < len(ag.ver) && ag.ver[id] != 0 }

// setVer records id's version, growing the id-indexed table as needed.
func (ag *Agglomerative) setVer(id int, v uint32) {
	for id >= len(ag.ver) {
		ag.ver = append(ag.ver, 0)
	}
	ag.ver[id] = v
}

// cand scores the pair at the current versions as Sim(a, b) — in that
// argument order, since a caller's similarity need not be bitwise
// symmetric — and stores it under the ordered id pair.
func (ag *Agglomerative) cand(a, b int) mergeCand {
	sim := ag.Sim(a, b)
	if a > b {
		a, b = b, a
	}
	return mergeCand{sim: sim, a: a, b: b, va: ag.ver[a], vb: ag.ver[b]}
}

// Run clusters the given live ids until no admissible pair remains, and
// returns the surviving cluster ids (frozen and merged alike) in first-seen
// order: input ids first, then merged ids in creation order.
//
// The driver keeps a max-heap of candidate merges with lazy invalidation:
// each cluster id carries a version, candidates snapshot the versions of
// their two clusters, and a popped candidate is discarded when either
// version is out of date. A merge therefore costs one row of similarity
// computations (the merged cluster against the survivors) plus O(log h)
// heap maintenance, instead of the full O(k^2) rescan of the naive loop.
// The candidate order (similarity, then id pair) is total over live
// candidates, so the pops — and hence the merges — are a deterministic
// function of the similarity values, independent of how the heap was
// built or in which order a row was scored.
func (ag *Agglomerative) Run(ids []int) []int {
	admissible := func(a, b int) bool {
		return ag.CanMerge == nil || ag.CanMerge(a, b)
	}
	// Every id this run reads has its version set first, so entries left
	// in ver by an earlier run are never consulted.
	ag.order = append(ag.order[:0], ids...)
	for _, id := range ids {
		ag.setVer(id, 1)
	}

	// Initial pairwise rows: each id against the admissible ids after it,
	// appended unordered and heapified once.
	n := len(ids)
	if c := n * (n - 1) / 2; cap(ag.heap) < c {
		ag.heap = make(candHeap, 0, c)
	}
	h := ag.heap[:0]
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if admissible(a, b) {
				h = append(h, ag.cand(a, b))
			}
		}
	}
	h.heapify()

	nextVer := uint32(2)
	for len(h) > 0 {
		c := h.pop()
		if ag.ver[c.a] != c.va || ag.ver[c.b] != c.vb {
			continue // stale: one side has merged since this was scored
		}
		if c.sim < ag.MinSim {
			break // max-heap: nothing better remains
		}
		merged := ag.Merge(c.a, c.b)
		ag.ver[c.a], ag.ver[c.b] = 0, 0
		ag.setVer(merged, nextVer) // reused ids get a fresh version, stale entries die
		nextVer++
		ag.order = append(ag.order, merged)
		for _, b := range ag.order {
			if ag.live(b) && b != merged && admissible(merged, b) {
				h.push(ag.cand(merged, b))
			}
		}
	}
	ag.heap = h[:0]

	out := make([]int, 0, len(ag.order))
	for _, id := range ag.order {
		if ag.live(id) {
			out = append(out, id)
			ag.ver[id] = 0 // emit each survivor once
		}
	}
	return out
}

// Dendrogram records one merge step of HierarchicalLinkage.
type Dendrogram struct {
	A, B int     // merged cluster indices (0..n-1 leaves, then n, n+1, ...)
	Sim  float64 // similarity at which they merged
}

// Linkage selects how inter-cluster similarity is derived from item
// similarities in HierarchicalLinkage.
type Linkage int

// Supported linkage criteria.
const (
	AverageLinkage Linkage = iota
	SingleLinkage          // maximum similarity (single link)
	CompleteLinkage
)

// HierarchicalLinkage clusters n items given a pairwise similarity function,
// returning the full merge history (n-1 steps). Cluster k (k >= n) is the
// result of step k-n.
func HierarchicalLinkage(n int, sim func(i, j int) float64, link Linkage) []Dendrogram {
	if n == 0 {
		return nil
	}
	members := make([][]int, n, 2*n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	// Cache item-level similarities.
	simAt := make([][]float64, n)
	for i := 0; i < n; i++ {
		simAt[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i < j {
				simAt[i][j] = sim(i, j)
			}
		}
	}
	getSim := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return simAt[i][j]
	}
	clusterSim := func(a, b int) float64 {
		switch link {
		case SingleLinkage:
			best := math.Inf(-1)
			for _, x := range members[a] {
				for _, y := range members[b] {
					if s := getSim(x, y); s > best {
						best = s
					}
				}
			}
			return best
		case CompleteLinkage:
			worst := math.Inf(1)
			for _, x := range members[a] {
				for _, y := range members[b] {
					if s := getSim(x, y); s < worst {
						worst = s
					}
				}
			}
			return worst
		default:
			sum := 0.0
			for _, x := range members[a] {
				for _, y := range members[b] {
					sum += getSim(x, y)
				}
			}
			return sum / float64(len(members[a])*len(members[b]))
		}
	}
	var steps []Dendrogram
	for len(live) > 1 {
		bi, bj := 0, 1
		best := math.Inf(-1)
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				if s := clusterSim(live[i], live[j]); s > best {
					best, bi, bj = s, i, j
				}
			}
		}
		a, b := live[bi], live[bj]
		steps = append(steps, Dendrogram{A: a, B: b, Sim: best})
		merged := len(members)
		members = append(members, append(append([]int(nil), members[a]...), members[b]...))
		live[bj] = live[len(live)-1]
		live = live[:len(live)-1]
		live[bi] = merged
	}
	return steps
}

// CutDendrogram returns the cluster membership (item -> cluster id) obtained
// by replaying merges with similarity >= minSim.
func CutDendrogram(n int, steps []Dendrogram, minSim float64) []int {
	parent := make([]int, n+len(steps))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	next := n
	for _, st := range steps {
		if st.Sim >= minSim {
			parent[find(st.A)] = next
			parent[find(st.B)] = next
		}
		next++
	}
	out := make([]int, n)
	canon := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		id, ok := canon[r]
		if !ok {
			id = len(canon)
			canon[r] = id
		}
		out[i] = id
	}
	return out
}
