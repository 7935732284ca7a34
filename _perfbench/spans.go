package main

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function or an HTTP handler. Spans of one request share Trace,
// the X-Request-Id the program echoes; build stages share the trace
// "build". Parent is the index of the causing span, or -1 for a root.
// Times are offsets from the recorder's epoch.
type span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; they are written out
// once, when the benchmark ends. A nil *recorder records nothing, so the
// untraced path threads one through without branching.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// add stores s and returns its index.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes the span at index i now.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is s's duration minus the part of [s.Start, s.End) that the
// union of its children's intervals covers. Children may overlap each
// other (retries, hedges) or stick out of the parent (clock skew between
// the recording goroutines); only their union clipped to the parent
// counts, so the result is never negative.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			covered += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return s.dur() - covered
}

// children groups span indices by parent index.
func children(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// wrap records one span per request that next serves on the routes the
// breakdown needs, named by role and route. The request's trace ID is the
// X-Request-Id the program puts on the response, captured when the header
// is written: the daemon's header value lives in a pooled array that is
// reused once the handler returns, so it must not be read afterwards.
func (r *recorder) wrap(role string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := spanName(role, req)
		if name == "" {
			next.ServeHTTP(w, req)
			return
		}
		start := r.now()
		cw := &idCapture{ResponseWriter: w}
		next.ServeHTTP(cw, req)
		r.add(span{Trace: cw.id, Name: name, Parent: -1, Start: start, End: r.now()})
	})
}

// spanName maps a served request to its span name, or "" for routes the
// breakdown ignores (health probes, metrics).
func spanName(role string, req *http.Request) string {
	switch req.URL.Path {
	case "/v1/predict":
		if req.Method == http.MethodPost {
			return role + ".bulk"
		}
		return role + ".predict"
	case "/v1/query":
		return role + ".query"
	case "/v1/admin/reload":
		return role + ".reload"
	}
	return ""
}

type idCapture struct {
	http.ResponseWriter
	id    string
	wrote bool
}

func (c *idCapture) capture() {
	if c.wrote {
		return
	}
	c.wrote = true
	if v := c.Header()["X-Request-Id"]; len(v) > 0 {
		c.id = v[0]
	}
}

func (c *idCapture) WriteHeader(code int) {
	c.capture()
	c.ResponseWriter.WriteHeader(code)
}

func (c *idCapture) Write(b []byte) (int, error) {
	c.capture()
	return c.ResponseWriter.Write(b)
}
