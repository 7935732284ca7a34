package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamofinder/internal/dataset"
)

func testNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("P%04d", i)
	}
	return names
}

// streamBytes serializes a pool's wire content (method, target, body).
func streamBytes(pool []request) []byte {
	var b bytes.Buffer
	for _, rq := range pool {
		fmt.Fprintf(&b, "%s %s %s\n", rq.method, rq.target, rq.body)
	}
	return b.Bytes()
}

func TestStreamIsSeeded(t *testing.T) {
	names := testNames(300)
	for _, bulk := range []bulkKind{bulkQuery, bulkBatch} {
		a := streamBytes(genStream(7, names, 512, bulk))
		if b := streamBytes(genStream(7, names, 512, bulk)); !bytes.Equal(a, b) {
			t.Fatalf("bulk %d: same seed gave different request streams", bulk)
		}
		if c := streamBytes(genStream(8, names, 512, bulk)); bytes.Equal(a, c) {
			t.Fatalf("bulk %d: seeds 7 and 8 gave the same request stream", bulk)
		}
	}
}

func TestStreamMix(t *testing.T) {
	pool := genStream(3, testNames(50), 1024, bulkQuery)
	var perClass [numClasses]int
	var perShape [numShapes]int
	for _, rq := range pool {
		perClass[rq.class]++
		if rq.class == classBulk {
			perShape[rq.shape]++
		}
	}
	if perClass[classBulk] != 256 || perShape != [numShapes]int{64, 64, 64, 64} {
		t.Fatalf("mix per class %v, per shape %v; want one bulk in four, shapes in turn", perClass, perShape)
	}
}

func TestSeedChangesInteractome(t *testing.T) {
	edges := func(seed int64) [][2]int32 {
		return dataset.NewMIPS(modelConfig(false, seed).MIPS).Task.Network.Edges(nil)
	}
	if reflect.DeepEqual(edges(7), edges(8)) {
		t.Fatal("seeds 7 and 8 gave the same interactome")
	}
	if !reflect.DeepEqual(edges(7), edges(7)) {
		t.Fatal("seed 7 gave two different interactomes")
	}
}

// okChecker accepts every 200 response.
type okChecker struct{}

func (okChecker) begin() int { return 0 }

func (okChecker) check(rq *request, since int, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

// loadAgainstCounter drives a closed loop of 8 workers through client at a
// server that counts the requests it is serving at once. The count falls
// before the handler writes its reply, so each request it counts holds its
// own client connection until after the count has fallen: the server's
// peak is a lower bound on the connections the client had open at once.
// With closeEach, every response closes its connection, so the client
// redials for every request.
func loadAgainstCounter(t *testing.T, client *http.Client, closeEach bool, d time.Duration) (loopResult, int64) {
	t.Helper()
	var serving gauge
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serving.inc()
		time.Sleep(200 * time.Microsecond)
		serving.dec()
		if closeEach {
			w.Header().Set("Connection", "close")
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	defer client.CloseIdleConnections()
	l := &loop{client: client, base: srv.URL, pool: genStream(1, testNames(20), 64, bulkQuery),
		next: new(atomic.Int64), workers: 8, check: okChecker{}}
	res := l.run(d)
	if res.attempted < 50 || res.failed != 0 {
		t.Fatalf("close=%v: attempted %d failed %d (%v)", closeEach, res.attempted, res.failed, res.errs)
	}
	return res, serving.peak.Load()
}

func TestClientNeverExceedsTwoConnections(t *testing.T) {
	for _, closeEach := range []bool{false, true} {
		var cnt connCounter
		res, serverPeak := loadAgainstCounter(t, newClient(connections, &cnt), closeEach, 500*time.Millisecond)
		if serverPeak > connections {
			t.Fatalf("close=%v: server served %d requests at once, cap %d connections", closeEach, serverPeak, connections)
		}
		if peak := cnt.dialing.peak.Load(); peak > connections {
			t.Fatalf("close=%v: %d dials at once, cap %d", closeEach, peak, connections)
		}
		dials := cnt.dials.Load()
		if !closeEach && dials > connections {
			t.Fatalf("keep-alive client dialed %d times, want at most %d", dials, connections)
		}
		// The cap must hold through many redials, not a handful.
		if closeEach && (dials < 200 || dials < res.attempted) {
			t.Fatalf("closing server: %d dials for %d requests, want one per request and at least 200", dials, res.attempted)
		}
	}
}

// TestConnectionCountSeesNoCap is the control for the test above: without
// the cap, the same load is seen over it.
func TestConnectionCountSeesNoCap(t *testing.T) {
	var cnt connCounter
	_, serverPeak := loadAgainstCounter(t, newClient(0, &cnt), false, 300*time.Millisecond)
	if serverPeak <= connections {
		t.Fatalf("uncapped client with 8 workers: server saw at most %d requests at once, want more than %d", serverPeak, connections)
	}
}

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	return d
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		want   time.Duration
	}{
		{100, 50, 50}, {100, 90, 90}, {200, 90, 180}, {101, 50, 51}, {1000, 99, 990}, {15, 1, 1},
	} {
		got, err := percentile(durations(tc.n), tc.pct)
		if err != nil || got != tc.want {
			t.Errorf("p%d of 1..%d = %v, %v; want %v", tc.pct, tc.n, got, err, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{{99, 90}, {999, 99}, {10, 50}, {0, 50}} {
		if v, err := percentile(durations(tc.n), tc.pct); err == nil {
			t.Errorf("p%d of %d samples = %v, want a refusal (fewer than %d beyond)", tc.pct, tc.n, v, minBeyond)
		}
	}
}

// TestWalkSendsThePoolOnce checks that warm-up answers every pool entry,
// from wherever the cursor stands, and stops after one pass: a worker
// may start one request past the pass before it sees the cursor there.
func TestWalkSendsThePoolOnce(t *testing.T) {
	var hits sync.Map
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Store(r.URL.Query().Get("entry"), true)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	var cnt connCounter
	client := newClient(connections, &cnt)
	defer client.CloseIdleConnections()
	const workers = 2
	pool := genStream(1, testNames(500), 256, bulkBatch)
	for i := range pool {
		sep := "?"
		if strings.Contains(pool[i].target, "?") {
			sep = "&"
		}
		pool[i].target += sep + "entry=" + strconv.Itoa(i)
	}
	next := new(atomic.Int64)
	next.Store(1000)
	l := &loop{client: client, base: srv.URL, pool: pool, next: next, workers: workers, check: okChecker{}}
	res := l.walk()
	if res.failed != 0 || res.attempted < int64(len(pool)) || res.attempted >= int64(len(pool)+workers) {
		t.Fatalf("walk of %d entries: attempted %d failed %d, want %d to %d attempted", len(pool), res.attempted, res.failed, len(pool), len(pool)+workers-1)
	}
	for i := range pool {
		if _, ok := hits.Load(strconv.Itoa(i)); !ok {
			t.Fatalf("pool entry %d was never sent", i)
		}
	}
}
