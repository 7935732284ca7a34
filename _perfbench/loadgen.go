package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// class splits the request stream for latency reporting.
type class int

const (
	// classPredict is a single-protein GET /v1/predict?k=5.
	classPredict class = iota
	// classBulk is a bulk read: a POST /v1/query plan against one replica,
	// or, through the gateway (which does not route /v1/query), a batch
	// POST /v1/predict.
	classBulk
	numClasses
)

// bulkKind selects what a workload's bulk requests are.
type bulkKind int

const (
	bulkQuery bulkKind = iota // POST /v1/query plans, lamoload's four shapes
	bulkBatch                 // POST /v1/predict batches of batchSize proteins
)

const (
	topK = 5
	// batchSize is the size of a batch predict: the pinned 2-protein
	// batch of the query plan mix, sent where /v1/query is not routed.
	batchSize = 2
	// poolSize is the length of the seeded request pool a run cycles
	// through; the offline answers for every entry are computed before the
	// measured phase, so the client checks responses without scoring.
	poolSize = 4096
)

// Query plan shapes, taking turns among bulk /v1/query requests.
const (
	shapeScan   = iota // whole-interactome top-5
	shapeFilter        // degree+annotation-filtered top-5
	shapeGroup         // per-category grouped top-5
	shapePinned        // a pinned 2-protein batch
	numShapes
)

var shapeNames = [numShapes]string{"scan", "filter", "group", "pinned"}

// request is one pool entry. want holds its offline answer for each
// artifact the workload serves; the phase's checker decides which of them
// may be served when.
type request struct {
	class  class
	shape  int // query shape, -1 for other requests
	method string
	target string // path and query, relative to the base URL
	body   []byte
	want   [][]byte
}

// genStream draws the seeded request pool: three requests in four are
// single-protein predicts over uniformly drawn proteins, every fourth is a
// bulk request, and query shapes take turns. The mix is exact rather than
// drawn, so a percentile over bulk requests does not move with the seed's
// share of slow shapes; proteins and plan parameters are drawn. The same
// (seed, names, n, bulk) always yields the same bytes.
func genStream(seed int64, names []string, n int, bulk bulkKind) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	pick := func() string { return names[rng.Intn(len(names))] }
	pool := make([]request, n)
	for i := range pool {
		if i%4 != 3 {
			pool[i] = request{class: classPredict, shape: -1, method: http.MethodGet,
				target: "/v1/predict?protein=" + url.QueryEscape(pick()) + "&k=" + strconv.Itoa(topK)}
			continue
		}
		if bulk == bulkBatch {
			ps := make([]string, batchSize)
			for b := range ps {
				ps[b] = strconv.Quote(pick())
			}
			pool[i] = request{class: classBulk, shape: -1, method: http.MethodPost, target: "/v1/predict",
				body: []byte(fmt.Sprintf(`{"proteins":[%s],"k":%d}`, strings.Join(ps, ","), topK))}
			continue
		}
		shape := (i / 4) % numShapes
		body := shapePlan(shape, rng, names)
		pool[i] = request{class: classBulk, shape: shape, method: http.MethodPost, target: "/v1/query", body: []byte(body)}
	}
	return pool
}

// shapePlan draws one /v1/query plan body of the given shape, with
// lamoload's parameters: degree >= 1..4 and a random annotation flag for
// the filter shape, two uniformly drawn proteins for the pinned one.
func shapePlan(shape int, rng *rand.Rand, names []string) string {
	switch shape {
	case shapeFilter:
		return fmt.Sprintf(`{"filter":[{"field":"degree","op":"ge","value":%d},{"field":"annotated","op":"eq","bool":%v}],"topk":%d}`,
			1+rng.Intn(4), rng.Intn(2) == 0, topK)
	case shapeGroup:
		return fmt.Sprintf(`{"group_by":"category","topk":%d}`, topK)
	case shapePinned:
		return fmt.Sprintf(`{"filter":[{"field":"protein","op":"in","names":[%s,%s]}],"topk":%d}`,
			strconv.Quote(names[rng.Intn(len(names))]), strconv.Quote(names[rng.Intn(len(names))]), topK)
	}
	return fmt.Sprintf(`{"topk":%d}`, topK)
}

// gauge is a count of things in progress and the most there ever were
// at once.
type gauge struct{ cur, peak atomic.Int64 }

func (g *gauge) inc() {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) dec() { g.cur.Add(-1) }

// connCounter counts the client's dials: how many there were, and how many
// ran at once. The transport holds a connection slot from the start of a
// dial until the connection is closed, so dials running at once never
// exceed the cap. Open connections are not counted: net/http gives up a
// connection's slot just before it closes the connection, so a count that
// falls on Close would read one over the cap while a redial overlaps it.
type connCounter struct {
	dials   atomic.Int64
	dialing gauge
}

// newClient returns the load client: at most conns connections to its
// host, no proxy, no compression, every dial counted.
func newClient(conns int, cnt *connCounter) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		cnt.dials.Add(1)
		cnt.dialing.inc()
		defer cnt.dialing.dec()
		return d.DialContext(ctx, network, addr)
	}
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         dial,
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// checker decides whether one response is correct. The loop calls begin
// just before it sends a request and passes its result to check with the
// response.
type checker interface {
	begin() int
	check(rq *request, since int, status int, body []byte) error
}

// loop is one closed-loop phase: workers goroutines, each sending its next
// request only when the previous response has been read and checked.
type loop struct {
	client  *http.Client
	base    string
	pool    []request
	next    *atomic.Int64 // pool cursor, shared across phases
	workers int
	check   checker
	spans   *recorder // client spans, when tracing
}

// loopResult is what a phase measured. lat holds successful requests only:
// a failed request is counted, never timed as a fast success.
type loopResult struct {
	attempted, failed int64
	lat               [numClasses][]time.Duration
	wall              time.Duration
	errs              []string
}

const maxErrs = 5

func (r *loopResult) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *loopResult) merge(o *loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, e)
		}
	}
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
}

// run drives the loop for d and returns the merged measurements.
func (l *loop) run(d time.Duration) loopResult {
	deadline := time.Now().Add(d)
	return l.runWhile(func() bool { return time.Now().Before(deadline) })
}

// walk drives the loop until it has sent every request of the pool once.
func (l *loop) walk() loopResult {
	end := l.next.Load() + int64(len(l.pool))
	return l.runWhile(func() bool { return l.next.Load() < end })
}

// runWhile drives the loop while more reports true before each request.
func (l *loop) runWhile(more func() bool) loopResult {
	start := time.Now()
	results := make([]loopResult, l.workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			var buf bytes.Buffer
			for more() {
				rq := &l.pool[int((l.next.Add(1)-1)%int64(len(l.pool)))]
				since := l.check.begin()
				t0 := l.spans.now()
				begin := time.Now()
				status, id, err := send(l.client, l.base, rq, &buf)
				lat := time.Since(begin)
				res.attempted++
				if err == nil {
					err = l.check.check(rq, since, status, buf.Bytes())
				}
				if err != nil {
					res.fail(err)
					continue
				}
				res.lat[rq.class] = append(res.lat[rq.class], lat)
				if l.spans != nil {
					l.spans.add(span{Trace: id, Name: "client." + classNames[rq.class], Parent: -1, Start: t0, End: t0 + lat})
				}
			}
		}(&results[w])
	}
	wg.Wait()
	var out loopResult
	for i := range results {
		out.merge(&results[i])
	}
	out.wall = time.Since(start)
	return out
}

var classNames = [numClasses]string{"predict", "bulk"}

var jsonContentType = []string{"application/json"}

// send issues one request and reads the whole body into buf.
func send(client *http.Client, base string, rq *request, buf *bytes.Buffer) (status int, id string, err error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.target, body)
	if err != nil {
		return 0, "", err
	}
	if rq.body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header.Get("X-Request-Id"), err
}

// minBeyond is the fewest samples that must lie beyond a reported
// percentile's rank.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of sorted: the
// sample at rank ceil(pct/100 × n). It refuses when fewer than minBeyond
// samples lie beyond that rank, because such a tail is a handful of
// events, not a percentile.
func percentile(sorted []time.Duration, pct int) (time.Duration, error) {
	n := len(sorted)
	rank := (n*pct + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d", pct, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// median returns the middle of xs, or the mean of the two middle values
// for an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
