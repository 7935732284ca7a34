package motif

import (
	"math/rand"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
	"lamofinder/internal/randnet"
)

// UniquenessConfig controls the randomized-network null-model test.
type UniquenessConfig struct {
	// Networks is the number of degree-preserving randomizations (Milo et
	// al. use 100..1000; 10-50 suffices for screening).
	Networks int
	// MaxSteps bounds the per-pattern matcher effort in each randomized
	// network. A round whose budget is exhausted after finding at least one
	// match cannot be certified and counts as a loss; a round that explored
	// the whole budget without completing a single embedding counts as a
	// win — for meso-scale patterns exhaustive refutation is infeasible,
	// and an empty exhaustive-size sample is strong rarity evidence (the
	// same compromise NeMoFinder's approximate counting makes).
	MaxSteps int64
	// CountCap bounds how many randomized-network matches are counted per
	// pattern. Patterns whose real frequency exceeds the cap cannot be
	// certified unique (the round counts as a loss when the randomized
	// count also reaches the cap) — ultra-common patterns such as short
	// paths are never motifs, and counting their six-digit frequencies
	// exactly would dominate the run time. 0 means no cap.
	CountCap int
	// Seed drives the randomizations.
	Seed int64
	// Parallelism caps the concurrent workers (0 = runtime.GOMAXPROCS(0)).
	// Results are identical at any setting: each network derives its own
	// RNG stream from Seed, and each (network, pattern) pair writes to its
	// own slot.
	Parallelism int
}

// DefaultUniquenessConfig returns a screening-strength null model.
func DefaultUniquenessConfig() UniquenessConfig {
	return UniquenessConfig{Networks: 20, MaxSteps: 2_000_000, CountCap: 20_000, Seed: 7}
}

// ScoreUniqueness fills in Uniqueness for each motif: the fraction of
// randomized networks whose pattern frequency does not exceed the real
// frequency. The matcher counts distinct vertex sets and stops as soon as
// the randomized count exceeds the real one, so typical cost per network is
// small.
//
// The work runs in two parallel phases. First each network is randomized
// once, from its own seed derived from cfg.Seed, and its adjacency bitmap
// built. Then every (network, pattern) pair is counted as its own task
// (each pattern compiled once), writing its win to an index-addressed slot.
// Per-pair costs differ by orders of magnitude, so pair-level tasks keep
// all workers busy where per-network tasks left the pool idle behind the
// slowest network. Results are identical at any worker count.
func ScoreUniqueness(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) {
	if cfg.Networks <= 0 {
		return
	}
	workers := par.Workers(cfg.Parallelism)
	nets := make([]*graph.Graph, cfg.Networks)
	adjs := make([]*graph.AdjBits, cfg.Networks)
	par.Do(cfg.Networks, workers, func(r int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*0x9e3779b9))
		nets[r] = randnet.Randomize(g, rng)
		adjs[r] = graph.NewAdjBits(nets[r])
	})
	plans := make([]*graph.MatchPlan, len(motifs))
	par.Do(len(motifs), workers, func(i int) {
		plans[i] = graph.NewMatchPlan(motifs[i].Pattern)
	})

	// Pair p is (motif p / Networks, network p % Networks), so motif i's
	// rounds are the slots wins[i*Networks : (i+1)*Networks].
	wins := make([]bool, len(motifs)*cfg.Networks)
	scratch := make([]graph.Matcher, workers)
	par.DoWorker(len(wins), workers, func(w, p int) {
		i, r := p/cfg.Networks, p%cfg.Networks
		wins[p] = uniqueWin(&scratch[w], nets[r], adjs[r], plans[i], motifs[i].Frequency, cfg)
	})
	for i, m := range motifs {
		total := 0
		for _, won := range wins[i*cfg.Networks : (i+1)*cfg.Networks] {
			if won {
				total++
			}
		}
		m.Uniqueness = float64(total) / float64(cfg.Networks)
	}
}

// uniqueWin scores one (network, pattern) round: whether the randomized
// network certifiably holds no more copies of the pattern than the real
// network's freq.
func uniqueWin(m *graph.Matcher, rnet *graph.Graph, adj *graph.AdjBits, plan *graph.MatchPlan, freq int, cfg UniquenessConfig) bool {
	// Count up to freq+1 sets (capped): if the randomized network has
	// more sets than the real one, the round is lost.
	limit := freq + 1
	if cfg.CountCap > 0 && limit > cfg.CountCap {
		limit = cfg.CountCap
	}
	cnt, exact := m.CountUpTo(rnet, adj, plan, limit, cfg.MaxSteps)
	if !exact {
		// Budget exhausted without completing one embedding: the pattern
		// is rare in the randomized network. Otherwise the round cannot
		// be certified.
		return cnt == 0
	}
	if cnt >= limit && limit <= freq {
		// Hit the count cap below the real frequency: cannot certify.
		return false
	}
	return cnt <= freq
}

// FilterUnique returns the motifs with Uniqueness >= minUniq, preserving
// order. Motifs never scored (Uniqueness < 0) are dropped.
func FilterUnique(motifs []*Motif, minUniq float64) []*Motif {
	var out []*Motif
	for _, m := range motifs {
		if m.Uniqueness >= minUniq {
			out = append(out, m)
		}
	}
	return out
}
