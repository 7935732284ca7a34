package artifact

import (
	"fmt"

	"lamofinder/internal/par"
	"lamofinder/internal/predict"
)

// ScoreIndex is the build-time score index every artifact carries: the
// dense protein×function Eq.-5 score matrix plus the full ranking of
// every protein, both computed once at `lamod build` time. A serving
// process answers a prediction from the index with two slice reads — no
// scoring, no sorting, no allocation.
//
// The index is derived state: it is a pure function of the rest of the
// artifact (the same scorer constructor every offline consumer uses), so
// served rankings equal the offline scorer's. It is nevertheless carried
// inside the checksummed payload, not recomputed at load, because
// recomputing would put the expensive half of Eq. 5 back on the serving
// path the index exists to remove.
type ScoreIndex struct {
	numFunctions int
	// scores[p*numFunctions+f] is protein p's score for function f.
	scores []float64
	// ranked[p] is protein p's full ranking — predict.TopK(row p, 0) —
	// with scores materialized, so serving top-k is a subslice.
	ranked [][]predict.Ranked
}

// NumProteins returns the number of indexed proteins.
func (ix *ScoreIndex) NumProteins() int {
	if ix.numFunctions == 0 {
		return 0
	}
	return len(ix.scores) / ix.numFunctions
}

// Row returns protein p's dense score vector. The slice aliases the index
// and must be treated read-only.
func (ix *ScoreIndex) Row(p int) []float64 {
	return ix.scores[p*ix.numFunctions : (p+1)*ix.numFunctions]
}

// Ranking returns protein p's full descending ranking (positive scores
// only, ties toward the smaller function index). The slice aliases the
// index and must be treated read-only; a top-k answer is Ranking(p)[:k].
//
// alloc-budget: 0
func (ix *ScoreIndex) Ranking(p int) []predict.Ranked {
	return ix.ranked[p]
}

// BuildIndex scores every protein on the worker pool and attaches the
// result as the artifact's score index, which Encode requires.
// parallelism <= 0 uses GOMAXPROCS workers; the result
// is identical at any setting because each protein writes only its own
// row and ranking slot.
func (a *Artifact) BuildIndex(parallelism int) {
	scorer := a.NewScorer()
	n, nf := a.Graph.N(), a.NumFunctions
	ix := &ScoreIndex{
		numFunctions: nf,
		scores:       make([]float64, n*nf),
		ranked:       make([][]predict.Ranked, n),
	}
	par.Do(n, par.Workers(parallelism), func(p int) {
		row := scorer.Scores(p)
		copy(ix.scores[p*nf:(p+1)*nf], row)
		ix.ranked[p] = predict.TopK(row, 0)
	})
	a.Index = ix
	a.digest = "" // the encoded form (and so the identity) changed
}

// encodeIndex appends the score-index section after the payload.
func (a *Artifact) encodeIndex(e *enc) error {
	ix := a.Index
	n := a.Graph.N()
	if ix.numFunctions != a.NumFunctions || len(ix.scores) != n*a.NumFunctions || len(ix.ranked) != n {
		return fmt.Errorf("artifact: score index shape %d×%d does not match model %d×%d",
			len(ix.ranked), ix.numFunctions, n, a.NumFunctions)
	}
	e.u32(uint32(ix.numFunctions))
	for _, s := range ix.scores {
		e.f64(s)
	}
	for p := 0; p < n; p++ {
		rk := ix.ranked[p]
		e.u32(uint32(len(rk)))
		for _, r := range rk {
			e.u32(uint32(r.Function))
		}
	}
	return nil
}

// decodeIndex reads and validates the score-index section. The stored
// rankings are only function ids; scores come from the matrix, and the
// section is rejected unless each ranking is exactly predict.TopK of its
// row — complete over the positive scores, strictly ordered by descending
// score with ties toward the smaller function index.
func decodeIndex(d *dec, a *Artifact) (*ScoreIndex, error) {
	n := a.Graph.N()
	nf := d.count(0)
	if d.err == nil && nf != a.NumFunctions {
		d.fail("score index covers %d functions, model has %d", nf, a.NumFunctions)
	}
	if d.err != nil {
		return nil, d.err
	}
	ix := &ScoreIndex{numFunctions: nf}
	if got, want := len(d.b)-d.off, 8*n*nf; got < want {
		return nil, fmt.Errorf("artifact: score matrix needs %d bytes, %d remain", want, got)
	}
	ix.scores = make([]float64, n*nf)
	for i := range ix.scores {
		ix.scores[i] = d.f64()
	}
	ix.ranked = make([][]predict.Ranked, n)
	for p := 0; p < n && d.err == nil; p++ {
		row := ix.Row(p)
		positive := 0
		for _, s := range row {
			if s > 0 {
				positive++
			}
		}
		c := d.count(4)
		if d.err == nil && c != positive {
			d.fail("protein %d ranking lists %d functions, row has %d positive scores", p, c, positive)
		}
		rk := make([]predict.Ranked, 0, c)
		for i := 0; i < c && d.err == nil; i++ {
			f := d.index(nf, "ranked function")
			if d.err != nil {
				break
			}
			cur := predict.Ranked{Function: f, Score: row[f]}
			if cur.Score <= 0 {
				d.fail("protein %d ranks function %d with non-positive score", p, f)
				break
			}
			if i > 0 && !rankedBefore(rk[i-1], cur) {
				d.fail("protein %d ranking out of order at position %d", p, i)
				break
			}
			rk = append(rk, cur)
		}
		ix.ranked[p] = rk
	}
	if d.err != nil {
		return nil, d.err
	}
	return ix, nil
}

// rankedBefore mirrors predict's ranking order (descending score, ties to
// the smaller function index) for index validation.
func rankedBefore(a, b predict.Ranked) bool {
	if a.Score > b.Score {
		return true
	}
	if a.Score < b.Score {
		return false
	}
	return a.Function < b.Function
}
