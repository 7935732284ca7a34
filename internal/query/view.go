package query

import (
	"errors"

	"lamofinder/internal/artifact"
	"lamofinder/internal/par"
	"lamofinder/internal/predict"
)

// View is the columnar binding the engine executes over: the artifact's
// row-major protein×function score matrix transposed into category-major
// float64 columns, alongside dense protein attribute columns (degree,
// annotated bitset) and the per-protein rankings the row-major index
// already carries. It is built once at model load. /v1/predict serves a
// prefix of Ranking(p), while bulk plans scan cols[f*n : (f+1)*n] as one
// contiguous stride-1 pass per category.
//
// A View is immutable after construction; the daemon shares one across
// every request goroutine, and it pins to the model snapshot it was built
// from via the artifact digest.
type View struct {
	n  int // proteins
	nf int // functional categories

	// cols is the category-major score matrix: cols[f*n+p] is protein p's
	// Eq.-5 score for category f. Filters and per-category top-k touch one
	// contiguous column per category.
	cols []float64
	// degree[p] is protein p's interaction degree.
	degree []int32
	// annotated is a bitset: bit p set iff protein p carries at least one
	// known functional annotation (the paper's "annotated" set; its
	// complement is the prediction target).
	annotated []uint64
	// names[p] is protein p's display name; byName resolves it back.
	names  []string
	byName map[string]int
	// fnNames[f] is category f's display name.
	fnNames []string

	// ix holds protein p's full descending ranking (positive scores only,
	// ties toward the smaller function index) as ix.Ranking(p).
	// Per-protein plans and /v1/predict both serve straight from it, which
	// is what makes a topk(protein=p) plan byte-equal to /v1/predict.
	ix *artifact.ScoreIndex

	digest string
}

// NewView builds the columnar view of art, which must carry its score
// index. parallelism <= 0 uses GOMAXPROCS workers; the result is
// identical at any setting because every protein writes only its own
// strided column slots. The transpose costs one pass over the score
// matrix (n×nf float64 reads and writes) and is paid once per model load,
// not per query.
func NewView(art *artifact.Artifact, parallelism int) (*View, error) {
	ix := art.Index
	if ix == nil {
		return nil, errors.New("query: artifact has no score index")
	}
	digest, err := art.Digest()
	if err != nil {
		return nil, err
	}
	n, nf := art.Graph.N(), art.NumFunctions
	v := &View{
		n:         n,
		nf:        nf,
		cols:      make([]float64, n*nf),
		degree:    make([]int32, n),
		annotated: make([]uint64, (n+63)/64),
		names:     make([]string, n),
		byName:    make(map[string]int, n),
		ix:        ix,
		fnNames:   art.FunctionNames,
		digest:    digest,
	}

	par.Do(n, par.Workers(parallelism), func(p int) {
		for f, s := range ix.Row(p) {
			v.cols[f*n+p] = s
		}
	})

	for p := 0; p < n; p++ {
		v.degree[p] = int32(art.Graph.Degree(p))
		name := art.Graph.Name(p)
		v.names[p] = name
		v.byName[name] = p
		if len(art.Functions[p]) > 0 {
			v.annotated[p>>6] |= 1 << (p & 63)
		}
	}
	return v, nil
}

// NumProteins returns the number of proteins in the view.
func (v *View) NumProteins() int { return v.n }

// NumFunctions returns the number of functional categories.
func (v *View) NumFunctions() int { return v.nf }

// Digest returns the digest of the artifact the view was built from.
func (v *View) Digest() string { return v.digest }

// Resolve maps a protein name to its vertex id.
func (v *View) Resolve(name string) (int, bool) {
	p, ok := v.byName[name]
	return p, ok
}

// Name returns protein p's display name.
func (v *View) Name(p int) string { return v.names[p] }

// Ranking returns protein p's full descending ranking (read-only).
//
// alloc-budget: 0
func (v *View) Ranking(p int) []predict.Ranked { return v.ix.Ranking(p) }

// Column returns category f's contiguous score column (read-only).
func (v *View) Column(f int) []float64 { return v.cols[f*v.n : (f+1)*v.n] }

// Degree returns protein p's interaction degree.
func (v *View) Degree(p int) int { return int(v.degree[p]) }

// Annotated reports whether protein p carries a known annotation.
func (v *View) Annotated(p int) bool {
	return v.annotated[p>>6]&(1<<(p&63)) != 0
}
