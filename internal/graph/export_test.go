package graph

// Hooks for the external differential tests (vf2_diff_test.go), which
// import the random-graph generators and so cannot live in package graph.

// RefCountMappings is the historical closure matcher (vf2_ref_test.go).
var RefCountMappings = refCountMappings

// RefAutomorphismCount is the historical enumerate-every-permutation
// group order.
var RefAutomorphismCount = refAutomorphismCount

// CountMappings exposes the kernel's (mappings, exact, steps), the
// triple RefCountMappings returns.
func (m *Matcher) CountMappings(g *Graph, adj *AdjBits, plan *MatchPlan, mapLimit, maxSteps int64) (int64, bool, int64) {
	return m.countMappings(g, adj, plan, mapLimit, maxSteps)
}
