// Package label implements LaMoFinder, the paper's core contribution:
// assigning GO labels to the vertices of network motifs so that the labeled
// subgraphs still occur frequently in the annotated PPI network. It covers
// GO-based vertex and occurrence similarity (Eqs. 1-3), symmetry-aware
// vertex pairing, agglomerative clustering of occurrences with least-general
// labeling schemes, and the border-informative-FC stopping rule
// (Algorithms 1-2).
package label

import (
	"math"
	"sync"
	"sync/atomic"

	"lamofinder/internal/cluster"
	"lamofinder/internal/ontology"
)

// UnknownSim is the neutral similarity used when one of the two vertices has
// no GO annotation; the paper lets unannotated proteins join any cluster and
// take their labels from the annotated occurrences.
const UnknownSim = 0.5

// stShardCount is the number of lock shards in the term-similarity cache;
// a power of two so shard selection is a mask.
const stShardCount = 64

// stDenseMaxTerms bounds the term-space size for which the cache uses the
// dense atomic table (n^2 float64 slots); above it, memory would grow
// quadratically into real GO scale, so the sharded maps take over.
const stDenseMaxTerms = 1536

type stShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
}

// stCache memoizes Lin term scores for concurrent similarity workers.
//
// Two layouts share the type. For small term spaces (synthetic branches,
// the worked example) a dense n*n table of atomic slots serves hits with a
// single load — no lock traffic on the hot path, which matters because the
// labeler queries the cache millions of times. Large term spaces fall back
// to maps behind sharded read-write locks. Either way, cached values are
// pure functions of the key, so a racing double-compute stores the same
// value twice and determinism is unaffected.
type stCache struct {
	dense  []atomic.Uint64 // nil => sharded maps; slot ta*denseN+tb
	denseN int
	shards [stShardCount]stShard
}

func newSTCache(numTerms int) *stCache {
	c := &stCache{}
	if numTerms > 0 && numTerms <= stDenseMaxTerms {
		c.dense = make([]atomic.Uint64, numTerms*numTerms)
		c.denseN = numTerms
		return c
	}
	for i := range c.shards {
		c.shards[i].m = map[uint64]float64{}
	}
	return c
}

// Dense slots hold math.Float64bits(v)+1 so that the zero value of a fresh
// slot is distinguishable from a cached 0.0 (whose bit pattern is 0).
func stEncode(v float64) uint64 { return math.Float64bits(v) + 1 }
func stDecode(b uint64) float64 { return math.Float64frombits(b - 1) }

func (c *stCache) shard(key uint64) *stShard {
	return &c.shards[(key*0x9e3779b97f4a7c15)>>58&(stShardCount-1)]
}

// get returns the cached value for the term pair (ta <= tb), computing and
// storing it via f on a miss.
func (c *stCache) get(ta, tb int, f func() float64) float64 {
	if c.dense != nil {
		slot := &c.dense[ta*c.denseN+tb]
		if b := slot.Load(); b != 0 {
			return stDecode(b)
		}
		v := f()
		slot.Store(stEncode(v))
		return v
	}
	key := uint64(ta)<<32 | uint64(uint32(tb))
	sh := c.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = f()
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// Sim computes GO-based similarities with memoized Lin term scores. It is
// safe for concurrent use: the memo table is sharded (see stCache), and the
// ontology and weights are read-only.
type Sim struct {
	o   *ontology.Ontology
	w   ontology.Weights
	lca *ontology.LCAIndex
	st  *stCache
}

// NewSim returns a similarity calculator over the given ontology/weights.
// It builds an LCA index once, so cache misses answer in O(1) on tree
// ontologies (and via short weight-sorted scans on DAGs) instead of
// walking ancestor bitsets per term pair; the stCache stays purely a
// fast-path memo in front of that.
func NewSim(o *ontology.Ontology, w ontology.Weights) *Sim {
	return &Sim{o: o, w: w, lca: ontology.NewLCAIndex(o, w), st: newSTCache(o.NumTerms())}
}

// LCAIndex exposes the prebuilt min-weight LCA index (same ontology and
// weights as the Sim).
func (s *Sim) LCAIndex() *ontology.LCAIndex { return s.lca }

// Term returns the Lin similarity ST(ta, tb) (Eq. 1), memoized.
func (s *Sim) Term(ta, tb int) float64 {
	if ta > tb {
		ta, tb = tb, ta
	}
	return s.st.get(ta, tb, func() float64 { return s.lca.Lin(ta, tb) })
}

// Vertex returns SV(vi, vj) (Eq. 2) for two direct-annotation term sets:
// 1 - prod(1 - ST(ta, tb)) over all cross pairs. One good term match makes
// the vertices similar. Empty sets score UnknownSim.
func (s *Sim) Vertex(ta, tb []int32) float64 {
	if len(ta) == 0 || len(tb) == 0 {
		return UnknownSim
	}
	prod := 1.0
	for _, a := range ta {
		for _, b := range tb {
			prod *= 1 - s.Term(int(a), int(b))
			if prod == 0 {
				return 1
			}
		}
	}
	return 1 - prod
}

// Occurrence returns SO(oi, oj) (Eq. 3) between two labeled vertex
// sequences, plus the vertex pairing that achieves it: pairing[i] is the
// position in B matched to position i of A. labelsA and labelsB give the
// term set at each motif vertex position; sym carries the pattern's
// symmetry structure. When per-orbit assignment spans exactly the
// automorphism group, each orbit's optimal pairing is found by Hungarian
// assignment (the paper's max over pair(Ia, Ib)); otherwise the pairing
// ranges over explicit automorphisms so that occurrence correspondence
// remains a valid embedding.
//
// Occurrence is the allocating form of the scratch-taking core the
// clustering hot path uses.
func (s *Sim) Occurrence(labelsA, labelsB [][]int32, sym *Symmetry) (so float64, pairing []int) {
	var sc occScratch
	so = s.occurrence(labelsA, labelsB, sym, &sc)
	return so, sc.pairing
}

// occScratch is the reusable working memory of one occurrence-similarity
// caller: the Hungarian solver, a flat row-major orbit score matrix, the
// SV cache of the automorphism path, and the pairing of the last call. A
// clustering worker owns one, so scoring a pair allocates nothing once the
// buffers have grown to the motif size.
type occScratch struct {
	asg     cluster.Assigner
	score   []float64 // |orbit|×|orbit| scores, row-major
	sv      []float64 // nv×nv SV cache, row-major; -1 = not yet computed
	pairing []int     // pairing of the last occurrence call, len nv
}

// occurrence is Occurrence over caller-owned scratch: it returns SO and
// leaves the pairing in sc.pairing, valid until the next call.
func (s *Sim) occurrence(labelsA, labelsB [][]int32, sym *Symmetry, sc *occScratch) float64 {
	nv := len(labelsA)
	if cap(sc.pairing) < nv {
		sc.pairing = make([]int, nv)
	}
	pairing := sc.pairing[:nv]
	sc.pairing = pairing
	if sym.ExactOrbitPairing() {
		total := 0.0
		for _, orb := range sym.Orbits {
			if len(orb) == 1 {
				v := orb[0]
				pairing[v] = v
				total += s.Vertex(labelsA[v], labelsB[v])
				continue
			}
			k := len(orb)
			if cap(sc.score) < k*k {
				sc.score = make([]float64, nv*nv)
			}
			score := sc.score[:k*k]
			for i, va := range orb {
				for j, vb := range orb {
					score[i*k+j] = s.Vertex(labelsA[va], labelsB[vb])
				}
			}
			assign, sum := sc.asg.Solve(score, k)
			for i, va := range orb {
				pairing[va] = orb[assign[i]]
			}
			total += sum
		}
		return total / float64(nv)
	}
	// Automorphism search: cache SV values, then score each permutation.
	if cap(sc.sv) < nv*nv {
		sc.sv = make([]float64, nv*nv)
	}
	sv := sc.sv[:nv*nv]
	for i := range sv {
		sv[i] = -1
	}
	best := -1.0
	var bestPerm []int
	for _, perm := range sym.Auts {
		total := 0.0
		for v := 0; v < nv; v++ {
			x := &sv[v*nv+perm[v]]
			if *x < 0 {
				*x = s.Vertex(labelsA[v], labelsB[perm[v]])
			}
			total += *x
		}
		if total > best {
			best = total
			bestPerm = perm
		}
	}
	sc.pairing = append(pairing[:0], bestPerm...)
	return best / float64(nv)
}
