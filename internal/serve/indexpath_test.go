package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lamofinder/internal/artifact"
)

// servedModel returns the paper-example artifact round-tripped through its
// encoded form, as a daemon loads it from disk.
func servedModel(t testing.TB) *artifact.Artifact {
	t.Helper()
	art, _, _ := exampleModel(t)
	return reload(t, art)
}

// TestIndexedServesIdenticalBytes: an index built with one worker and
// served from memory, and an index built with four workers and loaded
// from the encoded file, produce the same artifact digest and
// byte-identical /v1/predict responses for every protein and k. The index
// is the only ranking path, so it must not depend on how it was built or
// whether it went through Encode/Decode; TestPredictMatchesOfflineScorer
// pins those bytes to the offline scorer.
func TestIndexedServesIdenticalBytes(t *testing.T) {
	serial, _, _ := exampleModel(t)
	serial.BuildIndex(1)
	fanned, _, _ := exampleModel(t)
	fanned.BuildIndex(4)
	loaded := reload(t, fanned)
	ds, err := serial.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dl, err := loaded.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if ds != dl {
		t.Fatalf("digest %s (serial, in memory) vs %s (parallel, decoded)", ds, dl)
	}
	ts1 := newTestServer(t, serial, Config{})
	ts2 := newTestServer(t, loaded, Config{Parallelism: 4})
	for p := 0; p < serial.Graph.N(); p++ {
		name := serial.Graph.Name(p)
		for _, k := range []int{1, 3, 7, 0} {
			q := fmt.Sprintf("/v1/predict?protein=%s&k=%d", name, k)
			st1, b1 := get(t, ts1.URL+q)
			st2, b2 := get(t, ts2.URL+q)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("%s k=%d: status %d vs %d", name, k, st1, st2)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s k=%d: in-memory response differs from decoded:\n%s\nvs\n%s", name, k, b1, b2)
			}
		}
	}
}

// TestIndexedBatchDeterministicAcrossParallelism: the index BuildIndex
// computes in memory and the index decoded from the file serve identical
// batch bytes, across runs and Parallelism settings (predict never touches
// the worker pool, but the config must not change bytes either way).
func TestIndexedBatchDeterministicAcrossParallelism(t *testing.T) {
	built, _, _ := exampleModel(t)
	query := "/v1/predict?protein=p1&protein=p5&protein=p13&k=5"
	var bodies [][]byte
	for _, art := range []*artifact.Artifact{built, reload(t, built)} {
		for _, parallelism := range []int{1, 4} {
			ts := newTestServer(t, art, Config{Parallelism: parallelism})
			for run := 0; run < 2; run++ {
				status, body := get(t, ts.URL+query)
				if status != http.StatusOK {
					t.Fatalf("parallelism %d run %d: status %d: %s", parallelism, run, status, body)
				}
				bodies = append(bodies, body)
			}
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}
}

// TestIndexHitMetrics: every protein a predict request answers from the
// score index counts once in predictions.
func TestIndexHitMetrics(t *testing.T) {
	s, err := New(servedModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if status, body := get(t, ts.URL+"/v1/predict?protein=p1&protein=p2&k=3"); status != http.StatusOK {
			t.Fatalf("predict: %d: %s", status, body)
		}
	}
	if m := s.Metrics(); m.Predictions != 4 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestNewRequiresIndex: a server cannot be built over an artifact without
// a score index, because every prediction is read from it.
func TestNewRequiresIndex(t *testing.T) {
	art := servedModel(t)
	art.Index = nil
	if _, err := New(art, Config{}); err == nil {
		t.Fatal("New accepted an artifact without a score index")
	}
}

// TestPprofGating: the profiling endpoints exist only when opted in, and
// mount outside the deadlined chain.
func TestPprofGating(t *testing.T) {
	art := servedModel(t)
	off := newTestServer(t, art, Config{})
	if status, _ := get(t, off.URL+"/debug/pprof/cmdline"); status != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", status)
	}
	on := newTestServer(t, art, Config{EnablePprof: true})
	if status, body := get(t, on.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof cmdline with opt-in: %d: %s", status, body)
	}
	// The API itself must still work through the pprof-bearing mux.
	if status, body := get(t, on.URL+"/v1/predict?protein=p1&k=2"); status != http.StatusOK {
		t.Fatalf("predict with pprof enabled: %d: %s", status, body)
	}
}
