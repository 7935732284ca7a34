package graph

import (
	"math"
	"math/bits"
)

// vf2DenseIso reports whether two equally sized dense graphs are isomorphic,
// using a VF2-style backtracking search seeded with WL color compatibility.
func vf2DenseIso(a, b *Dense) bool {
	n := a.n
	if n != b.n {
		return false
	}
	var caArr, cbArr [MaxDense]uint64
	wlColors(a, &caArr)
	wlColors(b, &cbArr)
	ca, cb := caArr[:n], cbArr[:n]
	// Candidate sets: vertex u of a may map only to vertices of b with the
	// same color.
	cand := make([]uint32, n)
	for u := 0; u < n; u++ {
		var m uint32
		for v := 0; v < n; v++ {
			if ca[u] == cb[v] {
				m |= 1 << uint(v)
			}
		}
		if m == 0 {
			return false
		}
		cand[u] = m
	}
	mapping := make([]int, n)
	var usedB uint32
	var rec func(u int) bool
	rec = func(u int) bool {
		if u == n {
			return true
		}
		for m := cand[u] &^ usedB; m != 0; {
			v := bits.TrailingZeros32(m)
			m &= m - 1
			ok := true
			for p := 0; p < u; p++ {
				if a.HasEdge(u, p) != b.HasEdge(v, mapping[p]) {
					ok = false
					break
				}
			}
			if ok {
				mapping[u] = v
				usedB |= 1 << uint(v)
				if rec(u + 1) {
					return true
				}
				usedB &^= 1 << uint(v)
			}
		}
		return false
	}
	return rec(0)
}

// Automorphisms enumerates the automorphisms of d (as permutations:
// perm[i] = image of vertex i), up to the given cap (0 = no cap). The
// identity is always included.
func Automorphisms(d *Dense, cap int) [][]int {
	n := d.n
	var colArr [MaxDense]uint64
	wlColors(d, &colArr)
	cols := colArr[:n]
	cand := make([]uint32, n)
	for u := 0; u < n; u++ {
		var m uint32
		for v := 0; v < n; v++ {
			if cols[u] == cols[v] {
				m |= 1 << uint(v)
			}
		}
		cand[u] = m
	}
	var out [][]int
	mapping := make([]int, n)
	var usedB uint32
	var rec func(u int) bool // returns true to abort (cap reached)
	rec = func(u int) bool {
		if u == n {
			out = append(out, append([]int(nil), mapping...))
			return cap > 0 && len(out) >= cap
		}
		for m := cand[u] &^ usedB; m != 0; {
			v := bits.TrailingZeros32(m)
			m &= m - 1
			ok := true
			for p := 0; p < u; p++ {
				if d.HasEdge(u, p) != d.HasEdge(v, mapping[p]) {
					ok = false
					break
				}
			}
			if ok {
				mapping[u] = v
				usedB |= 1 << uint(v)
				stop := rec(u + 1)
				usedB &^= 1 << uint(v)
				if stop {
					return true
				}
			}
		}
		return false
	}
	rec(0)
	return out
}

// Orbits returns the automorphism orbits of d: the partition of vertices
// into the paper's "symmetric vertex sets". Vertices in the same orbit can
// be interchanged by some automorphism. Orbits are returned sorted by their
// smallest member; singleton orbits are included.
func Orbits(d *Dense) [][]int {
	n := d.n
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// A generous cap: the orbit partition usually converges from few
	// automorphisms; 4096 covers highly symmetric meso-scale motifs.
	for _, perm := range Automorphisms(d, 4096) {
		for i, img := range perm {
			union(i, img)
		}
	}
	groups := map[int][]int{}
	for v := 0; v < n; v++ {
		r := find(v)
		groups[r] = append(groups[r], v)
	}
	orbits := make([][]int, 0, len(groups))
	for r := 0; r < n; r++ {
		if g, ok := groups[r]; ok {
			orbits = append(orbits, g)
		}
	}
	return orbits
}

// AutomorphismCount returns the order of the automorphism group of d,
// capped at the given limit (0 = no cap) and saturating at math.MaxInt.
//
// It never materializes the group. By the orbit–stabilizer theorem, |Aut|
// is the product over i of the size of i's orbit under the automorphisms
// that fix 0..i-1, and each orbit is found with one existence search per
// candidate image (candidates an already-found automorphism reaches are
// skipped). A star with 11 leaves costs a few dozen searches here instead
// of 11! stored permutations.
func AutomorphismCount(d *Dense, cap int) int {
	n := d.n
	var colArr [MaxDense]uint64
	wlColors(d, &colArr)
	var s autSearch
	s.d = d
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if colArr[u] == colArr[v] {
				s.cand[u] |= 1 << uint(v)
			}
		}
	}
	total := int64(1)
	for i := 0; i < n && (cap <= 0 || total < int64(cap)); i++ {
		fixed := uint32(1)<<uint(i) - 1 // vertices 0..i-1
		orbit := uint32(1) << uint(i)
		// Each generator found grows the orbit, so a level has fewer
		// than MaxDense of them.
		var gens [MaxDense][MaxDense]uint8
		ng := 0
		for m := s.cand[i] &^ fixed &^ orbit; m != 0; m &= m - 1 {
			w := bits.TrailingZeros32(m)
			if orbit&(1<<uint(w)) != 0 || !s.find(i, w) {
				continue
			}
			for v := 0; v < n; v++ {
				gens[ng][v] = uint8(s.img[v])
			}
			ng++
			// Close the orbit under every generator found at this level.
			for grown := true; grown; {
				grown = false
				for x := orbit; x != 0; x &= x - 1 {
					v := bits.TrailingZeros32(x)
					for _, gen := range gens[:ng] {
						if bit := uint32(1) << gen[v]; orbit&bit == 0 {
							orbit |= bit
							grown = true
						}
					}
				}
			}
		}
		total = satMul(total, int64(bits.OnesCount32(orbit)))
	}
	if cap > 0 && total > int64(cap) {
		return cap
	}
	return int(min(total, math.MaxInt))
}

// autSearch looks for single automorphisms of a dense pattern: img is the
// partial permutation under construction, used the set of images taken.
type autSearch struct {
	d    *Dense
	cand [MaxDense]uint32 // u -> vertices with u's WL color
	img  [MaxDense]int
	used uint32
}

// find reports whether some automorphism fixes 0..i-1 and maps i to w;
// on success s.img holds one.
func (s *autSearch) find(i, w int) bool {
	for j := 0; j < i; j++ {
		s.img[j] = j
	}
	s.used = uint32(1)<<uint(i) - 1
	if !s.consistent(i, w) {
		return false
	}
	s.img[i] = w
	s.used |= 1 << uint(w)
	return s.extend(i + 1)
}

// extend completes img over vertices u..n-1 by backtracking.
func (s *autSearch) extend(u int) bool {
	if u == s.d.n {
		return true
	}
	for m := s.cand[u] &^ s.used; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		if !s.consistent(u, v) {
			continue
		}
		s.img[u] = v
		s.used |= 1 << uint(v)
		if s.extend(u + 1) {
			return true
		}
		s.used &^= 1 << uint(v)
	}
	return false
}

// consistent reports whether mapping u to v preserves adjacency to every
// earlier vertex under img.
func (s *autSearch) consistent(u, v int) bool {
	for p := 0; p < u; p++ {
		if s.d.HasEdge(u, p) != s.d.HasEdge(v, s.img[p]) {
			return false
		}
	}
	return true
}

// satMul returns a*b for non-negative operands, saturating at
// math.MaxInt64 instead of wrapping.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// CountInducedUpTo counts vertex sets of g whose induced subgraph is
// isomorphic to pattern, stopping as soon as the count reaches limit
// (limit <= 0 means count exhaustively). Counting is by distinct vertex
// sets: the number of matched mappings is divided by |Aut(pattern)|.
// maxSteps bounds the number of backtracking extensions (0 = unbounded);
// when the budget is exhausted the count found so far is returned with
// exact = false. It builds g's adjacency bitmap and compiles pattern on
// every call; callers counting many patterns or many graphs use
// NewMatchPlan, NewAdjBits and a Matcher instead.
func CountInducedUpTo(g *Graph, pattern *Dense, limit int, maxSteps int64) (count int, exact bool) {
	var m Matcher
	return m.CountUpTo(g, NewAdjBits(g), NewMatchPlan(pattern), limit, maxSteps)
}

// MatchPlan is a pattern compiled for the bounded matcher: its search
// order, the per-position degree floor and adjacency tests, and the order
// of its automorphism group. It is immutable once built, so one plan is
// shared by every goroutine counting that pattern.
type MatchPlan struct {
	k     int
	aut   int64
	prior []int32 // position -> position of its anchor (an earlier neighbor)
	pdeg  []int32 // position -> pattern degree: the candidate degree floor
	// The tests at position pos are chk[off[pos]:off[pos+1]], earlier
	// positions whose images must be adjacent to the candidate (the first
	// nadj[pos] entries) or non-adjacent (the rest). The anchor is left
	// out: candidates come from its neighbor list, so its test never
	// fails.
	off  []int32
	chk  []int32
	nadj []int32
}

// NewMatchPlan compiles pattern for Matcher.CountUpTo.
func NewMatchPlan(pattern *Dense) *MatchPlan {
	k := pattern.n
	p := &MatchPlan{k: k, aut: int64(AutomorphismCount(pattern, 0)),
		prior: make([]int32, k), pdeg: make([]int32, k),
		off: make([]int32, k+1), nadj: make([]int32, k),
		chk: make([]int32, 0, k*(k-1)/2)}
	if k == 0 {
		return p
	}
	// Each position after the first attaches to an earlier one; the
	// pattern is assumed connected (motifs are).
	order, prior := connectedOrder(pattern)
	for pos, u := range order {
		p.prior[pos] = int32(prior[pos])
		p.pdeg[pos] = int32(pattern.Degree(u))
		for q := 0; q < pos; q++ {
			if pattern.HasEdge(u, order[q]) && q != prior[pos] {
				p.chk = append(p.chk, int32(q))
			}
		}
		p.nadj[pos] = int32(len(p.chk)) - p.off[pos]
		for q := 0; q < pos; q++ {
			if !pattern.HasEdge(u, order[q]) {
				p.chk = append(p.chk, int32(q))
			}
		}
		p.off[pos+1] = int32(len(p.chk))
	}
	return p
}

// Matcher is the bounded induced-subgraph matcher's reusable scratch: the
// position -> vertex map, the used-vertex bitset, and the per-position
// row offsets of the adjacency tests. A Matcher is not safe for
// concurrent use; parallel callers keep one per worker. The zero value is
// ready to use.
type Matcher struct {
	mapped []int32
	used   []uint64
	rows   []int32
	// Per-call state.
	plan               *MatchPlan
	nbr                [][]int32
	deg                []int32
	words              []uint64
	stride             int32
	cnt, steps         int64
	mapLimit, maxSteps int64
	exhausted          bool
}

// CountUpTo is CountInducedUpTo for a compiled pattern over a graph whose
// adjacency bitmap adj = NewAdjBits(g) is already built. Results are
// independent of the Matcher's history.
func (m *Matcher) CountUpTo(g *Graph, adj *AdjBits, plan *MatchPlan, limit int, maxSteps int64) (count int, exact bool) {
	mapLimit := int64(0)
	if limit > 0 {
		mapLimit = satMul(int64(limit), plan.aut)
	}
	mappings, exact, _ := m.countMappings(g, adj, plan, mapLimit, maxSteps)
	return int(mappings / plan.aut), exact
}

// countMappings counts injective induced-isomorphism mappings of the
// plan's pattern into g, stopping at mapLimit (<= 0: exhaustive) or after
// maxSteps extensions (<= 0: unbounded), and returns the steps taken.
//
// The step accounting is a frozen contract (DESIGN.md §13): a step is one
// candidate that is unused and meets the degree floor, counted before its
// adjacency tests, with candidates visited in the historical order —
// every vertex ascending at position 0, the anchor's sorted neighbor list
// after. The uniqueness score turns budget exhaustion into a win or a loss,
// so any change to which candidates are counted, or in what order, changes
// the built artifact.
func (m *Matcher) countMappings(g *Graph, adj *AdjBits, plan *MatchPlan, mapLimit, maxSteps int64) (int64, bool, int64) {
	k := plan.k
	if k == 0 {
		return 0, true, 0
	}
	n := g.N()
	if len(m.mapped) < k {
		m.mapped = make([]int32, k)
	}
	if nw := (n + 63) / 64; cap(m.used) < nw {
		m.used = make([]uint64, nw)
	} else {
		m.used = m.used[:nw]
		clear(m.used)
	}
	if nc := len(plan.chk); len(m.rows) < nc {
		m.rows = make([]int32, nc)
	}
	m.plan, m.nbr, m.deg = plan, g.adj, adj.deg
	m.words, m.stride = adj.words, int32(adj.stride)
	m.cnt, m.steps, m.exhausted = 0, 0, false
	m.mapLimit, m.maxSteps = mapLimit, maxSteps
	if mapLimit <= 0 {
		m.mapLimit = math.MaxInt64
	}
	if maxSteps <= 0 {
		m.maxSteps = math.MaxInt64
	}

	need := plan.pdeg[0]
	for gv := 0; gv < n; gv++ {
		if m.deg[gv] < need {
			continue
		}
		m.steps++
		if m.steps > m.maxSteps {
			m.exhausted = true
			break
		}
		if k == 1 {
			m.cnt++
		} else {
			m.mapped[0] = int32(gv)
			m.used[gv>>6] |= 1 << uint(gv&63)
			m.extend(1)
			m.used[gv>>6] &^= 1 << uint(gv&63)
		}
		if m.exhausted || m.cnt >= m.mapLimit {
			break
		}
	}
	cnt, steps := m.cnt, m.steps
	m.plan, m.nbr, m.deg, m.words = nil, nil, nil, nil
	if cnt >= m.mapLimit {
		return cnt, true, steps // reached the requested limit; exact up to the cap
	}
	return cnt, !m.exhausted, steps
}

// extend maps position pos (> 0) to each admissible neighbor of its
// anchor's image in turn. On entry the budget and the limit are both
// unspent, so they are checked after each candidate, not before.
//
// alloc-budget: 0
func (m *Matcher) extend(pos int) {
	plan := m.plan
	lo, hi := plan.off[pos], plan.off[pos+1]
	// Each test probes the bitmap row of an already-mapped vertex, which
	// stays fixed across this position's candidates.
	rows := m.rows[lo:hi]
	for i, q := range plan.chk[lo:hi] {
		rows[i] = m.mapped[q] * m.stride
	}
	nadj := plan.nadj[pos]
	need := plan.pdeg[pos]
	last := pos == plan.k-1
	words, used := m.words, m.used
cand:
	for _, v := range m.nbr[m.mapped[plan.prior[pos]]] {
		w, bit := v>>6, uint64(1)<<uint(v&63)
		if used[w]&bit != 0 || m.deg[v] < need {
			continue
		}
		m.steps++
		if m.steps > m.maxSteps {
			m.exhausted = true
			return
		}
		for _, r := range rows[:nadj] {
			if words[r+w]&bit == 0 {
				continue cand
			}
		}
		for _, r := range rows[nadj:] {
			if words[r+w]&bit != 0 {
				continue cand
			}
		}
		if last {
			m.cnt++
		} else {
			m.mapped[pos] = v
			used[w] |= bit
			m.extend(pos + 1)
			used[w] &^= bit
		}
		if m.exhausted || m.cnt >= m.mapLimit {
			return
		}
	}
}

// connectedOrder returns an order of pattern vertices such that every vertex
// after the first is adjacent to an earlier one, plus for each position the
// index (into order) of one earlier neighbor.
func connectedOrder(pattern *Dense) (order []int, prior []int) {
	k := pattern.n
	order = make([]int, 0, k)
	prior = make([]int, k)
	inOrder := make([]int, k) // vertex -> position+1, 0 = absent
	// Start from the max-degree vertex for better pruning.
	start := 0
	for v := 1; v < k; v++ {
		if pattern.Degree(v) > pattern.Degree(start) {
			start = v
		}
	}
	order = append(order, start)
	inOrder[start] = 1
	for len(order) < k {
		bestV, bestAnchor, bestDeg := -1, -1, -1
		for v := 0; v < k; v++ {
			if inOrder[v] != 0 {
				continue
			}
			for pos, w := range order {
				if pattern.HasEdge(v, w) {
					if pattern.Degree(v) > bestDeg {
						bestV, bestAnchor, bestDeg = v, pos, pattern.Degree(v)
					}
					break
				}
			}
		}
		if bestV < 0 { // disconnected pattern: append arbitrary remaining
			for v := 0; v < k; v++ {
				if inOrder[v] == 0 {
					bestV, bestAnchor = v, 0
					break
				}
			}
		}
		prior[len(order)] = bestAnchor
		order = append(order, bestV)
		inOrder[bestV] = len(order)
	}
	return order, prior
}
