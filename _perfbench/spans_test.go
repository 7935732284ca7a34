package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"leaf", nil, 100},
		{"one child", []span{sp(10, 30)}, 80},
		{"overlapping children count once", []span{sp(10, 30), sp(20, 50)}, 60},
		{"nested child inside another", []span{sp(10, 60), sp(20, 30)}, 50},
		{"children clipped to the parent", []span{sp(-20, 10), sp(90, 150)}, 80},
		{"disjoint children", []span{sp(60, 70), sp(10, 30), sp(20, 50), sp(90, 120)}, 40},
		{"child outside the parent", []span{sp(120, 130)}, 100},
		{"full cover", []span{sp(0, 60), sp(50, 100)}, 0},
		{"empty child", []span{sp(40, 40)}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimeTree checks the request-path breakdown on a synthetic
// client → gateway → replica tree with a hedged second attempt.
func TestSelfTimeTree(t *testing.T) {
	spans := []span{
		{Trace: "gw1", Name: "client.predict", Parent: -1, Start: 0, End: 300},
		{Trace: "gw1", Name: "gateway.predict", Parent: -1, Start: 40, End: 260},
		{Trace: "gw1", Name: "serve.predict", Parent: -1, Start: 60, End: 200},
		{Trace: "gw1", Name: "serve.predict", Parent: -1, Start: 150, End: 240},
		{Trace: "x", Name: "fleet.rollout", Parent: -1, Start: 0, End: 5_000_000},
	}
	ms := newMetricSet()
	analyzeServing(spans, ms)
	for name, want := range map[string]float64{
		"transport.predict_us":       0.080, // 300 - (260-40)
		"fleet.hop_us":               0.040, // 220 - (240-60)
		"fleet.upstream_per_request": 2,
		"serve.predict_handler_us":   0.115, // median of 140 and 90
		"fleet.rollout_ms":           5,
		"fleet.rollouts":             1,
		"transport.query_us":         0,
	} {
		if got := ms.vals[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestWrapCapturesRequestID(t *testing.T) {
	rec := newRecorder()
	h := rec.wrap("serve", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", "req42")
		w.Write([]byte("{}"))
		// A later header change must not rename the recorded span.
		w.Header().Set("X-Request-Id", "other")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/v1/predict", "/v1/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	got := rec.snapshot()
	if len(got) != 1 || got[0].Trace != "req42" || got[0].Name != "serve.predict" || got[0].dur() <= 0 {
		t.Fatalf("spans %+v, want one serve.predict span for req42 (health probes are not spanned)", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables here and the
// declaration the benchmark is run against in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
}
