package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamofinder/internal/fleet"
)

var (
	modelOnce sync.Once
	model     *built
	modelErr  error
)

// quickModel builds the -quick model once for all tests.
func quickModel(t *testing.T) *built {
	t.Helper()
	modelOnce.Do(func() { model, modelErr = buildLamod(modelConfig(false, 2)) })
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// fleetFixture is the fleet workload's pool and oracle over the quick model.
func fleetFixture(t *testing.T) ([]request, *oracle) {
	t.Helper()
	b := quickModel(t)
	files, digests, err := workloads[2].files(b)
	if err != nil {
		t.Fatal(err)
	}
	pool, orc, err := workloads[2].prepare(options{seed: 3}, b, &deployment{files: files, digests: digests})
	if err != nil {
		t.Fatal(err)
	}
	return pool, orc
}

// runAgainst drives the pool against handler h, with the artifacts win
// allows, and returns the result.
func runAgainst(t *testing.T, pool []request, orc *oracle, win *servable, h http.Handler) loopResult {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	var cnt connCounter
	client := newClient(connections, &cnt)
	defer client.CloseIdleConnections()
	l := &loop{client: client, base: srv.URL, pool: pool, next: new(atomic.Int64), workers: connections, check: orc.against(win)}
	return l.run(200 * time.Millisecond)
}

// answering returns a handler that replies to every pool request with
// edit applied to its offline answer for the first artifact.
func answering(pool []request, status int, edit func([]byte) []byte) http.Handler {
	return answeringFrom(pool, 0, status, edit)
}

// answeringFrom is answering for the artifact at index art.
func answeringFrom(pool []request, art, status int, edit func([]byte) []byte) http.Handler {
	want := map[string][]byte{}
	for _, rq := range pool {
		want[rq.method+rq.target+string(rq.body)] = rq.want[art]
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body bytes.Buffer
		body.ReadFrom(r.Body)
		w.WriteHeader(status)
		w.Write(edit(bytes.Clone(want[r.Method+r.URL.RequestURI()+body.String()])))
	})
}

func assertAllFailed(t *testing.T, what string, res loopResult, wantErr string) {
	t.Helper()
	if res.attempted == 0 || res.failed != res.attempted {
		t.Fatalf("%s: %d of %d requests failed, want all", what, res.failed, res.attempted)
	}
	if n := len(res.lat[classPredict]) + len(res.lat[classBulk]); n != 0 {
		t.Fatalf("%s: %d failed requests were timed as successes", what, n)
	}
	if len(res.errs) == 0 || !strings.Contains(res.errs[0], wantErr) {
		t.Fatalf("%s: errors %q, want %q", what, res.errs, wantErr)
	}
}

func TestOracleAcceptsOfflineAnswers(t *testing.T) {
	pool, orc := fleetFixture(t)
	res := runAgainst(t, pool, orc, newServable(), answering(pool, http.StatusOK, func(b []byte) []byte { return b }))
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("exact offline answers: %d of %d failed: %v", res.failed, res.attempted, res.errs)
	}
}

func TestOracleCountsNon200(t *testing.T) {
	pool, orc := fleetFixture(t)
	res := runAgainst(t, pool, orc, newServable(), answering(pool, http.StatusInternalServerError, func(b []byte) []byte { return b }))
	assertAllFailed(t, "status 500 with the right body", res, "status 500")
}

func TestOracleCountsOneScoreByte(t *testing.T) {
	all, orc := fleetFixture(t)
	var pool []request
	for _, rq := range all {
		if bytes.Contains(rq.want[0], []byte(`"score":`)) {
			pool = append(pool, rq)
		}
	}
	flip := func(b []byte) []byte {
		i := bytes.Index(b, []byte(`"score":`)) + len(`"score":`)
		if b[i] == '9' {
			b[i] = '8'
		} else {
			b[i]++
		}
		return b
	}
	res := runAgainst(t, pool, orc, newServable(), answering(pool, http.StatusOK, flip))
	assertAllFailed(t, "one score byte changed", res, "differs from the offline answer")
}

func TestOracleCountsUnexpectedDigest(t *testing.T) {
	pool, orc := fleetFixture(t)
	foreign := strings.Repeat("f", 64)
	swap := func(b []byte) []byte {
		return bytes.Replace(b, []byte(bodyDigest(b)), []byte(foreign), 1)
	}
	res := runAgainst(t, pool, orc, newServable(), answering(pool, http.StatusOK, swap))
	assertAllFailed(t, "answer from a third artifact", res, "unexpected artifact "+foreign)
}

// instantRollouts is a fleet whose every rollout succeeds at once.
type instantRollouts struct{ calls atomic.Int64 }

func (f *instantRollouts) Rollout(ctx context.Context, path, digest string) (fleet.RolloutResult, error) {
	f.calls.Add(1)
	return fleet.RolloutResult{}, nil
}

// rolledOnce runs rollLoop against f until its first rollout is done and
// returns the window it recorded.
func rolledOnce(t *testing.T, f rollouter) (*servable, rollStats) {
	t.Helper()
	win := newServable()
	stop := make(chan struct{})
	done := make(chan rollStats, 1)
	go func() {
		done <- rollLoop(f, []string{"a", "b"}, []string{"da", "db"}, 10*time.Millisecond, win, stop, nil)
	}()
	for win.epoch() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	return win, <-done
}

// TestOracleCountsStaleArtifact: once a rollout to the second artifact
// has completed, the first artifact's answer is stale and fails, though
// it was correct before the rollout.
func TestOracleCountsStaleArtifact(t *testing.T) {
	pool, orc := fleetFixture(t)
	win, roll := rolledOnce(t, &instantRollouts{})
	if roll.attempted != 1 || roll.failed != 0 || roll.current != 1 {
		t.Fatalf("rollouts: %+v, want one that moved the fleet to artifact 1", roll)
	}
	res := runAgainst(t, pool, orc, win, answeringFrom(pool, 0, http.StatusOK, func(b []byte) []byte { return b }))
	assertAllFailed(t, "previous artifact after a completed rollout", res, "outside its rollout window")
	res = runAgainst(t, pool, orc, win, answeringFrom(pool, 1, http.StatusOK, func(b []byte) []byte { return b }))
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("new artifact after a completed rollout: %d of %d failed: %v", res.failed, res.attempted, res.errs)
	}
}

// TestOracleWindowCoversRollout: a request sent before a rollout finished
// may be answered by either artifact, and one sent after it only by the
// new one.
func TestOracleWindowCoversRollout(t *testing.T) {
	win := newServable()
	before := win.epoch()
	win.set(0b11)
	during := win.epoch()
	win.set(0b10)
	after := win.epoch()
	for _, tc := range []struct {
		since int
		want  uint64
	}{{before, 0b11}, {during, 0b11}, {after, 0b10}} {
		if got := win.since(tc.since); got != tc.want {
			t.Errorf("since epoch %d: artifacts %b, want %b", tc.since, got, tc.want)
		}
	}
}

// failingRollouts is a fleet whose every rollout fails.
type failingRollouts struct{ calls atomic.Int64 }

func (f *failingRollouts) Rollout(ctx context.Context, path, digest string) (fleet.RolloutResult, error) {
	f.calls.Add(1)
	return fleet.RolloutResult{}, errors.New("replica refused the reload")
}

func TestFailedRolloutIsCounted(t *testing.T) {
	f := &failingRollouts{}
	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	win := newServable()
	p := &phase{roll: rollLoop(f, []string{"a", "b"}, []string{"da", "db"}, 20*time.Millisecond, win, stop, nil)}
	res := &result{}
	p.count(res)
	if res.attempted == 0 || res.failed != res.attempted || res.attempted != f.calls.Load() {
		t.Fatalf("rollouts: %d attempted, %d failed, %d calls; want every call attempted and failed", res.attempted, res.failed, f.calls.Load())
	}
	if p.roll.current != 0 {
		t.Fatalf("a failed rollout moved the fleet to artifact %d", p.roll.current)
	}
	if m := win.since(win.epoch()); m != 0b11 {
		t.Fatalf("after failed rollouts the fleet may serve artifacts %b, want both", m)
	}
}

// TestFleetUnderRollout runs the real fleet workload stack briefly:
// every response through the gateway must match the offline answer for
// one of the two artifacts while rollouts alternate the replicas.
func TestFleetUnderRollout(t *testing.T) {
	b := quickModel(t)
	w := workloads[2]
	o := options{seed: 3, seconds: time.Second, dir: t.TempDir()}
	d, err := w.deploy(o, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, orc, err := w.prepare(o, b, d)
	if err != nil {
		t.Fatal(err)
	}
	var cnt connCounter
	client := newClient(connections, &cnt)
	win := newServable()
	l := &loop{client: client, base: d.base, pool: pool, next: new(atomic.Int64), workers: connections, check: orc.against(win)}
	stop := make(chan struct{})
	done := make(chan rollStats, 1)
	go func() { done <- rollLoop(d.router, d.paths, d.digests, 300*time.Millisecond, win, stop, nil) }()
	res := l.run(time.Second)
	close(stop)
	roll := <-done
	client.CloseIdleConnections()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.failed != 0 || roll.failed != 0 || roll.attempted < 2 {
		t.Fatalf("fleet: %d/%d requests failed (%v), %d rollouts, %d failed (%v)",
			res.failed, res.attempted, res.errs, roll.attempted, roll.failed, roll.errs)
	}
}

// TestGatewayDoesNotRouteQuery pins the reason fleet-rollout sends batch
// predicts as its bulk requests: the gateway has no /v1/query route.
func TestGatewayDoesNotRouteQuery(t *testing.T) {
	b := quickModel(t)
	d, err := workloads[2].deploy(options{dir: t.TempDir()}, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Post(d.base+"/v1/query", "application/json", strings.NewReader(`{"topk":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("gateway answered POST /v1/query with %d, want 404; fleet-rollout can now send query plans", resp.StatusCode)
	}
}
