package graph

// refCountMappings is the historical closure-based bounded matcher, kept
// verbatim as the reference oracle for the struct-based kernel in vf2.go
// (the way esu_ref_test.go keeps the old ESU enumerator). The one change is
// the third return value: the number of budgeted extension steps taken, so
// the differential tests can pin the step accounting as well as the
// (count, exact) answer. The uniqueness score depends on both — a pair that
// exhausts its budget with no match found is a win, with one found a loss —
// so the kernel must take exactly the same steps in exactly the same order.
func refCountMappings(g *Graph, adj *AdjBits, pattern *Dense, mapLimit int64, maxSteps int64) (int64, bool, int64) {
	k := pattern.n
	if k == 0 {
		return 0, true, 0
	}
	// Order pattern vertices so each (after the first) attaches to a prior
	// one; assumes pattern is connected (motifs are).
	order, prior := connectedOrder(pattern)
	pdeg := make([]int, k)
	for i := 0; i < k; i++ {
		pdeg[i] = pattern.Degree(i)
	}
	// Precompute, per position, which earlier positions must be adjacent /
	// non-adjacent in the graph (induced matching).
	adjPrev := make([][]int, k)  // positions p < pos with a pattern edge
	nadjPrev := make([][]int, k) // positions p < pos without one
	for pos := 0; pos < k; pos++ {
		u := order[pos]
		for p := 0; p < pos; p++ {
			if pattern.HasEdge(u, order[p]) {
				adjPrev[pos] = append(adjPrev[pos], p)
			} else {
				nadjPrev[pos] = append(nadjPrev[pos], p)
			}
		}
	}
	hasEdge := g.HasEdge
	if adj != nil {
		hasEdge = adj.Has
	}
	mapped := make([]int, k) // position -> graph vertex
	usedG := make([]bool, g.N())
	var cnt, steps int64
	exhausted := false

	var rec func(pos int)
	rec = func(pos int) {
		if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
			return
		}
		if pos == k {
			cnt++
			return
		}
		u := order[pos]
		try := func(gv int) {
			if usedG[gv] || g.Degree(gv) < pdeg[u] {
				return
			}
			steps++
			if maxSteps > 0 && steps > maxSteps {
				exhausted = true
				return
			}
			for _, p := range adjPrev[pos] {
				if !hasEdge(gv, mapped[p]) {
					return
				}
			}
			for _, p := range nadjPrev[pos] {
				if hasEdge(gv, mapped[p]) {
					return
				}
			}
			mapped[pos] = gv
			usedG[gv] = true
			rec(pos + 1)
			usedG[gv] = false
		}
		if pos == 0 {
			for gv := 0; gv < g.N(); gv++ {
				if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
					return
				}
				try(gv)
			}
			return
		}
		anchor := mapped[prior[pos]]
		for _, gv := range g.Neighbors(anchor) {
			if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
				return
			}
			try(int(gv))
		}
	}
	rec(0)
	if mapLimit > 0 && cnt >= mapLimit {
		return cnt, true, steps // reached the requested limit; exact up to the cap
	}
	return cnt, !exhausted, steps
}

// refAutomorphismCount is the historical group-order computation: the
// number of permutations Automorphisms materializes.
func refAutomorphismCount(d *Dense) int {
	return len(Automorphisms(d, 0))
}
