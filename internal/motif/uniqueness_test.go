package motif

import (
	"math/rand"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/randnet"
)

// perNetworkUniqueness is the historical per-network formulation of
// ScoreUniqueness: one serial pass over the motifs per randomized network,
// through the one-shot CountInducedUpTo.
func perNetworkUniqueness(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) []float64 {
	wins := make([]int, len(motifs))
	for r := 0; r < cfg.Networks; r++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*0x9e3779b9))
		rnet := randnet.Randomize(g, rng)
		for i, m := range motifs {
			limit := m.Frequency + 1
			if cfg.CountCap > 0 && limit > cfg.CountCap {
				limit = cfg.CountCap
			}
			cnt, exact := graph.CountInducedUpTo(rnet, m.Pattern, limit, cfg.MaxSteps)
			switch {
			case !exact:
				if cnt == 0 {
					wins[i]++
				}
			case cnt >= limit && limit <= m.Frequency:
			case cnt <= m.Frequency:
				wins[i]++
			}
		}
	}
	out := make([]float64, len(motifs))
	for i := range wins {
		out[i] = float64(wins[i]) / float64(cfg.Networks)
	}
	return out
}

// TestScoreUniquenessPairFanOutMatchesPerNetwork checks that fanning the
// scoring out over (network, pattern) pairs scores every motif exactly as
// the per-network loop does, at every worker count, with a step budget
// and a count cap that both bite.
func TestScoreUniquenessPairFanOutMatchesPerNetwork(t *testing.T) {
	g := randnet.DuplicationDivergence(300, 0.35, 0.35, rand.New(rand.NewSource(4)))
	ms := Find(g, Config{MinSize: 3, MaxSize: 6, MinFreq: 8, BeamWidth: 20, MaxOccPerClass: 60, Seed: 1})
	if len(ms) < 20 {
		t.Fatalf("only %d motifs mined", len(ms))
	}
	cfg := UniquenessConfig{Networks: 5, MaxSteps: 4000, CountCap: 40, Seed: 9}
	want := perNetworkUniqueness(g, ms, cfg)
	wins, losses := 0, 0
	for _, u := range want {
		if u > 0 {
			wins++
		}
		if u < 1 {
			losses++
		}
	}
	if wins == 0 || losses == 0 {
		t.Fatalf("degenerate fixture: %d motifs with a win, %d with a loss", wins, losses)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Parallelism = workers
		ScoreUniqueness(g, ms, cfg)
		for i, m := range ms {
			if m.Uniqueness != want[i] {
				t.Fatalf("Parallelism=%d motif %d (%s): uniqueness %v, per-network %v",
					workers, i, m.Pattern, m.Uniqueness, want[i])
			}
		}
	}
}
