package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"

	"lamofinder/internal/artifact"
	"lamofinder/internal/predict"
	"lamofinder/internal/query"
	"lamofinder/internal/serve"
)

// oracle holds the offline answers a workload's responses must equal, one
// per artifact the program may legitimately be serving. Predict answers
// come from the artifact's offline scorer (Eq. 4-5 ranking, no index);
// query answers from query.Execute on a View of the same artifact, which
// the program guarantees byte-identical to /v1/query.
type oracle struct {
	digests []string
	models  []*offlineModel
}

type offlineModel struct {
	art     *artifact.Artifact
	digest  string
	byName  map[string]int
	scorer  *predict.LabeledMotif
	view    *query.View
	ranking map[int][]serve.Prediction // top-k per protein, filled lazily
	bodies  map[string][]byte          // bulk request body -> answer
}

// newOracle decodes each artifact's encoded bytes, as a serving replica
// would, and prepares its offline scorer and query view.
func newOracle(encoded ...[]byte) (*oracle, error) {
	o := &oracle{}
	for _, b := range encoded {
		art, err := artifact.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		digest, err := art.Digest()
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		view, err := query.NewView(art, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		byName := make(map[string]int, art.Graph.N())
		for v := art.Graph.N() - 1; v >= 0; v-- {
			byName[art.Graph.Name(v)] = v
		}
		o.digests = append(o.digests, digest)
		o.models = append(o.models, &offlineModel{
			art: art, digest: digest, byName: byName, scorer: art.NewScorer(), view: view,
			ranking: map[int][]serve.Prediction{}, bodies: map[string][]byte{},
		})
	}
	return o, nil
}

// expect fills every pool entry's want list with one answer per artifact.
func (o *oracle) expect(pool []request) error {
	for i := range pool {
		rq := &pool[i]
		rq.want = rq.want[:0]
		for _, m := range o.models {
			w, err := m.answer(rq)
			if err != nil {
				return fmt.Errorf("oracle: %s %s: %w", rq.method, rq.target, err)
			}
			rq.want = append(rq.want, w)
		}
	}
	return nil
}

func (m *offlineModel) answer(rq *request) ([]byte, error) {
	if b, ok := m.bodies[rq.method+rq.target+string(rq.body)]; ok {
		return b, nil
	}
	var b []byte
	var err error
	switch {
	case rq.target == "/v1/query":
		b, err = m.queryAnswer(rq.body)
	case rq.method == http.MethodGet:
		name, ok := strings.CutPrefix(rq.target, "/v1/predict?protein=")
		if !ok {
			return nil, fmt.Errorf("unexpected target")
		}
		name, _, _ = strings.Cut(name, "&")
		name, err = url.QueryUnescape(name)
		if err == nil {
			b, err = m.predictAnswer([]string{name})
		}
	default:
		var req struct {
			Proteins []string `json:"proteins"`
		}
		if err = json.Unmarshal(rq.body, &req); err == nil {
			b, err = m.predictAnswer(req.Proteins)
		}
	}
	if err != nil {
		return nil, err
	}
	m.bodies[rq.method+rq.target+string(rq.body)] = b
	return b, nil
}

// predictAnswer renders the /v1/predict body for proteins at k = topK the
// way encoding/json renders serve.PredictResponse, plus the newline the
// daemon appends.
func (m *offlineModel) predictAnswer(proteins []string) ([]byte, error) {
	resp := serve.PredictResponse{Artifact: m.digest, K: topK}
	for _, name := range proteins {
		p, ok := m.byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown protein %q", name)
		}
		preds, ok := m.ranking[p]
		if !ok {
			preds = []serve.Prediction{}
			for _, r := range predict.TopK(m.scorer.Scores(p), topK) {
				preds = append(preds, serve.Prediction{Function: r.Function, Name: m.art.FunctionNames[r.Function], Score: r.Score})
			}
			m.ranking[p] = preds
		}
		resp.Results = append(resp.Results, serve.ProteinResult{Protein: name, Predictions: preds})
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

func (m *offlineModel) queryAnswer(body []byte) ([]byte, error) {
	var plan query.Plan
	if err := json.Unmarshal(body, &plan); err != nil {
		return nil, err
	}
	res, fe := query.Execute(m.view, &plan, 0)
	if fe != nil {
		return nil, fe
	}
	return res.Bytes(), nil
}

// servable records which of the oracle's artifacts the program may serve
// over a phase, as a sequence of epochs. A rollout opens an epoch in which
// both the old and the new artifact may be served and, once it has
// succeeded, one in which only the new one may.
type servable struct {
	mu    sync.Mutex
	masks []uint64 // masks[e] has bit i set when artifact i may be served in epoch e
}

// newServable starts with only the artifact the replicas start on, the
// first.
func newServable() *servable { return &servable{masks: []uint64{1}} }

// epoch returns the current epoch.
func (s *servable) epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.masks) - 1
}

// set opens an epoch in which the artifacts of mask may be served.
func (s *servable) set(mask uint64) {
	s.mu.Lock()
	s.masks = append(s.masks, mask)
	s.mu.Unlock()
}

// since returns the artifacts that may have been served at some time from
// the start of epoch e until now.
func (s *servable) since(e int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m uint64
	for _, x := range s.masks[e:] {
		m |= x
	}
	return m
}

// against returns the checker for one phase, in which the program may
// serve the artifacts that win allows.
func (o *oracle) against(win *servable) checker { return &phaseCheck{o: o, win: win} }

type phaseCheck struct {
	o   *oracle
	win *servable
}

func (c *phaseCheck) begin() int { return c.win.epoch() }

// check accepts a response only if it has status 200 and equals, byte for
// byte, the offline answer for an artifact the program may have served
// while the request was out.
func (c *phaseCheck) check(rq *request, since int, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", rq.method, rq.target, status)
	}
	for i, w := range rq.want {
		if bytes.Equal(body, w) {
			if c.win.since(since)&(1<<i) == 0 {
				return fmt.Errorf("%s %s: served artifact %s outside its rollout window", rq.method, rq.target, c.o.digests[i])
			}
			return nil
		}
	}
	if d := bodyDigest(body); d != "" && !slices.Contains(c.o.digests, d) {
		return fmt.Errorf("%s %s: served by unexpected artifact %s", rq.method, rq.target, d)
	}
	return fmt.Errorf("%s %s: body differs from the offline answer", rq.method, rq.target)
}

// bodyDigest reads the artifact digest that leads every predict and query
// body, or "" when the body does not start that way.
func bodyDigest(body []byte) string {
	rest, ok := bytes.CutPrefix(body, []byte(`{"artifact":"`))
	if !ok {
		return ""
	}
	d, _, ok := bytes.Cut(rest, []byte(`"`))
	if !ok {
		return ""
	}
	return string(d)
}
