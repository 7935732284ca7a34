package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"lamofinder/internal/artifact"
)

// padBody left-pads a JSON body with spaces to exactly n bytes. Leading
// whitespace is part of the JSON text, so the decoder has to read every
// byte before it reaches the value.
func padBody(body string, n int) string {
	return strings.Repeat(" ", n-len(body)) + body
}

func postBody(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body)) //nolint — test client
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// checkBodyCap posts body compact, padded to exactly the cap, and padded
// one byte past it. The first two must answer 200 with identical bytes;
// the third must be refused with 413.
func checkBodyCap(t *testing.T, url, body string) []byte {
	t.Helper()
	status, want := postBody(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("compact body: status %d: %s", status, want)
	}
	status, got := postBody(t, url, padBody(body, maxBodyBytes))
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("body at the %d-byte cap: status %d, body %s; want 200 and %s", maxBodyBytes, status, got, want)
	}
	status, got = postBody(t, url, padBody(body, maxBodyBytes+1))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d: %s; want 413", status, got)
	}
	return want
}

// TestPredictBodyCap: a batch predict body over the cap is refused with
// 413, and a batch within it answers exactly what the GET form does.
func TestPredictBodyCap(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})
	got := checkBodyCap(t, ts.URL+"/v1/predict", `{"proteins":["p1","p5","p13"],"k":5}`)
	_, want := get(t, ts.URL+"/v1/predict?protein=p1&protein=p5&protein=p13&k=5")
	if !bytes.Equal(got, want) {
		t.Fatalf("POST batch = %s, GET = %s", got, want)
	}
}

// TestQueryBodyCap: a query plan over the cap is refused with 413, and a
// plan within it streams the same bytes however it is padded.
func TestQueryBodyCap(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})
	checkBodyCap(t, ts.URL+"/v1/query", `{"topk":3}`)
}

// TestReloadBodyCap: a reload request over the cap is refused with 413
// and leaves the served model alone; one within it swaps the model.
func TestReloadBodyCap(t *testing.T) {
	dir := t.TempDir()
	pathA, digA := saveExample(t, dir, "version a")
	pathB, digB := saveExample(t, dir, "version b")
	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := newHTTPTestServer(t, s)
	url := ts.URL + "/v1/admin/reload"
	req, err := json.Marshal(reloadRequest{Artifact: pathB, Digest: digB})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := postBody(t, url, padBody(string(req), maxBodyBytes+1)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reload: status %d: %s; want 413", status, body)
	}
	if s.Digest() != digA {
		t.Fatalf("refused reload changed the served digest to %s", s.Digest())
	}
	status, body := postBody(t, url, padBody(string(req), maxBodyBytes))
	if status != http.StatusOK {
		t.Fatalf("reload at the cap: status %d: %s", status, body)
	}
	if s.Digest() != digB {
		t.Fatalf("served digest %s after reload, want %s", s.Digest(), digB)
	}
}
