package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/randnet"
)

// diffNetworks are the host graphs of the matcher differential test: one
// per random-graph family the miner meets (uniform, preferential
// attachment, and the duplication-divergence model the synthetic
// interactomes are grown from). A slice, not a map, so the patterns
// sampled from one shared generator are the same on every run.
func diffNetworks() []diffNetwork {
	return []diffNetwork{
		{"erdos-renyi", randnet.ErdosRenyi(45, 110, rand.New(rand.NewSource(1)))},
		{"barabasi-albert", randnet.BarabasiAlbert(45, 3, 2, rand.New(rand.NewSource(2)))},
		{"duplication-divergence", randnet.DuplicationDivergence(60, 0.4, 0.3, rand.New(rand.NewSource(3)))},
	}
}

type diffNetwork struct {
	name string
	g    *graph.Graph
}

// star returns the star with the given number of leaves (|Aut| = leaves!).
func star(leaves int) *graph.Dense {
	d := graph.NewDense(leaves + 1)
	for v := 1; v <= leaves; v++ {
		d.AddEdge(0, v)
	}
	return d
}

// sampledPatterns draws connected induced subgraphs of g with k = 3..7
// vertices by random neighbor growth, so most patterns occur in g and the
// matcher explores deep search trees rather than failing at the root.
func sampledPatterns(g *graph.Graph, perK int, rng *rand.Rand) []*graph.Dense {
	var out []*graph.Dense
	for k := 3; k <= 7; k++ {
		for made, tries := 0, 0; made < perK && tries < 100*perK; tries++ {
			vs := []int32{int32(rng.Intn(g.N()))}
			for len(vs) < k {
				nb := g.Neighbors(int(vs[rng.Intn(len(vs))]))
				if len(nb) == 0 {
					break
				}
				w := nb[rng.Intn(len(nb))]
				dup := false
				for _, x := range vs {
					dup = dup || x == w
				}
				if !dup {
					vs = append(vs, w)
				}
			}
			if len(vs) == k {
				out = append(out, g.Induced(vs))
				made++
			}
		}
	}
	return out
}

// checkSame runs the reference and the kernel on one input and fails on
// any difference in (mappings, exact, steps).
func checkSame(t *testing.T, what string, g *graph.Graph, adj *graph.AdjBits, p *graph.Dense, mapLimit, maxSteps int64) (int64, bool, int64) {
	t.Helper()
	rc, re, rs := graph.RefCountMappings(g, adj, p, mapLimit, maxSteps)
	kc, ke, ks := new(graph.Matcher).CountMappings(g, adj, graph.NewMatchPlan(p), mapLimit, maxSteps)
	if rc != kc || re != ke || rs != ks {
		t.Fatalf("%s pattern %s limit %d budget %d: reference (%d, %v, %d steps), kernel (%d, %v, %d steps)",
			what, p, mapLimit, maxSteps, rc, re, rs, kc, ke, ks)
	}
	return rc, re, rs
}

// TestMatcherMatchesReference pins the kernel to the historical closure
// matcher: identical mapping count, exactness and step count at the
// limits {0, 1, C, C+1} (C the exhaustive count) and at step budgets one
// below, at, and one above the reference's own step count for each.
func TestMatcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, nw := range diffNetworks() {
		name, g := nw.name, nw.g
		adj := graph.NewAdjBits(g)
		pats := append(sampledPatterns(g, 4, rng), star(5), star(6))
		for _, p := range pats {
			c, exact, _ := checkSame(t, name, g, adj, p, 0, 0)
			if !exact {
				t.Fatalf("%s pattern %s: unbounded count not exact", name, p)
			}
			for _, lim := range []int64{0, 1, c, c + 1} {
				_, _, s := checkSame(t, name, g, adj, p, lim, 0)
				for _, budget := range []int64{s - 1, s, s + 1} {
					if budget >= 1 {
						checkSame(t, name, g, adj, p, lim, budget)
					}
				}
			}
		}
	}
}

// TestMatcherScratchReuse checks that one Matcher, reused across graphs
// of different sizes and patterns of different sizes, answers every call
// as a fresh one does.
func TestMatcherScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m graph.Matcher
	for round := 0; round < 2; round++ {
		for _, nw := range diffNetworks() {
			name, g := nw.name, nw.g
			adj := graph.NewAdjBits(g)
			for _, p := range sampledPatterns(g, 2, rng) {
				plan := graph.NewMatchPlan(p)
				for _, budget := range []int64{0, 50, 2000} {
					rc, re, rs := graph.RefCountMappings(g, adj, p, 0, budget)
					kc, ke, ks := m.CountMappings(g, adj, plan, 0, budget)
					if rc != kc || re != ke || rs != ks {
						t.Fatalf("%s pattern %s budget %d: reused scratch gave (%d, %v, %d), reference (%d, %v, %d)",
							name, p, budget, kc, ke, ks, rc, re, rs)
					}
				}
			}
		}
	}
}

// TestCountUpToSetLimits checks the set-level API against the reference:
// CountUpTo(limit) must report the reference's mapping count at limit ×
// |Aut| divided back into vertex sets.
func TestCountUpToSetLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var m graph.Matcher
	for _, nw := range diffNetworks() {
		name, g := nw.name, nw.g
		adj := graph.NewAdjBits(g)
		for _, p := range append(sampledPatterns(g, 3, rng), star(5), star(6)) {
			aut := int64(graph.AutomorphismCount(p, 0))
			plan := graph.NewMatchPlan(p)
			full, _, _ := graph.RefCountMappings(g, adj, p, 0, 0)
			sets := int(full / aut)
			for _, limit := range []int{0, 1, sets, sets + 1} {
				for _, budget := range []int64{0, 300} {
					rc, re, _ := graph.RefCountMappings(g, adj, p, int64(limit)*aut, budget)
					kc, ke := m.CountUpTo(g, adj, plan, limit, budget)
					if kc != int(rc/aut) || ke != re {
						t.Fatalf("%s pattern %s limit %d budget %d: CountUpTo (%d, %v), reference (%d, %v)",
							name, p, limit, budget, kc, ke, rc/aut, re)
					}
				}
			}
		}
	}
}

// FuzzMatcherMatchesReference fuzzes the kernel against the reference
// over the host graph (Erdős–Rényi, seeded, 8..71 vertices), the pattern
// (3..7 vertices, any edge set — disconnected patterns included) and the
// step budget (0 = unbounded).
func FuzzMatcherMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2), uint64(0b1011011), uint16(0))
	f.Add(int64(2), uint8(50), uint8(4), uint64(0x3f), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, size, kSel uint8, edges uint64, budget uint16) {
		n := 8 + int(size)%64
		k := 3 + int(kSel)%5
		rng := rand.New(rand.NewSource(seed))
		g := randnet.ErdosRenyi(n, n+rng.Intn(2*n), rng)
		p := graph.NewDense(k)
		bit := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if edges>>uint(bit)&1 != 0 {
					p.AddEdge(i, j)
				}
				bit++
			}
		}
		adj := graph.NewAdjBits(g)
		_, _, s := checkSame(t, fmt.Sprintf("seed %d n %d", seed, n), g, adj, p, 0, int64(budget))
		checkSame(t, "limit 1", g, adj, p, 1, int64(budget))
		if s > 1 {
			checkSame(t, "budget s-1", g, adj, p, 0, s-1)
		}
	})
}

// TestAutomorphismCountMatchesEnumeration checks the orbit–stabilizer
// group order against the enumerated group on small random graphs,
// connected or not.
func TestAutomorphismCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(8)
		d := graph.NewDense(n)
		density := rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					d.AddEdge(i, j)
				}
			}
		}
		if got, want := graph.AutomorphismCount(d, 0), graph.RefAutomorphismCount(d); got != want {
			t.Fatalf("trial %d %s: AutomorphismCount %d, enumeration %d", trial, d, got, want)
		}
		if want := graph.RefAutomorphismCount(d); want > 2 {
			if got := graph.AutomorphismCount(d, 2); got != 2 {
				t.Fatalf("trial %d %s: capped count %d, want 2", trial, d, got)
			}
		}
	}
}

// TestAutomorphismCountLargeStar is the regression test for the
// factorial group order: the 12-leaf star's group (12! ≈ 4.8e8 elements)
// is counted without enumerating it, and the 31-leaf star's (31! ≈ 8e33)
// saturates instead of wrapping.
func TestAutomorphismCountLargeStar(t *testing.T) {
	if got, want := graph.AutomorphismCount(star(12), 0), 479001600; got != want {
		t.Fatalf("|Aut(star12)| = %d, want %d", got, want)
	}
	if got := graph.AutomorphismCount(star(31), 0); got != int(^uint(0)>>1) {
		t.Fatalf("|Aut(star31)| = %d, want saturation at MaxInt", got)
	}
	allocs := testing.AllocsPerRun(3, func() { graph.AutomorphismCount(star(11), 0) })
	if allocs > 64 {
		t.Fatalf("AutomorphismCount(star11) made %.0f allocations, want a handful", allocs)
	}
}
