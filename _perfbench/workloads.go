package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"lamofinder/internal/fleet"
	"lamofinder/internal/query"
)

// workload is one benchmark workload. Every workload builds a model, sets
// up a serving stack over it, drives a closed loop of seeded requests
// against the stack and checks every response, then evaluates the model;
// what differs is where the measured work lies.
type workload struct {
	name string
	// paper builds at the paper's Figure-9 preset, and that build is the
	// workload's measured work; otherwise the -quick model is built inside
	// each set-up.
	paper bool
	// fleet serves through a gateway in front of two replicas while a
	// rolling rollout alternates them between two artifacts.
	fleet bool
}

var workloads = []workload{
	{name: "build-paper", paper: true},
	{name: "serve-mixed"},
	{name: "fleet-rollout", fleet: true},
}

const (
	// setups is how many stacks a serving run sets up, each over its own
	// model; setup_s and build_s are medians over them.
	setups = 9
	// paperBuilds is how many times build-paper builds the paper model;
	// build_s is the median. Each build is followed by its own set-up and
	// a share of the serving phase, so builds and serving windows are
	// spread over the whole run and a slow spell of the host moves a
	// minority of each.
	paperBuilds = 3
	// loads is how many times build-paper loads an artifact into a fresh
	// stack after each build. A load takes ~7 ms, so the median needs
	// many more samples than a set-up with a build in it.
	loads = 20
	// connections is the load client's connection cap and worker count.
	connections  = 2
	rolloutEvery = 2 * time.Second
	// windows splits a measured phase over one stack; serving metrics are
	// medians over windows, so a burst of host noise moves one window, not
	// the run.
	windows = 5
)

type options struct {
	seed    int64
	seconds time.Duration
	dir     string // scratch directory inside the checkout
}

// bulk is what the workload's bulk requests are. serve-mixed sends query
// plans. The gateway does not route /v1/query, so fleet-rollout sends the
// plan mix's pinned 2-protein batch as a batch predict instead.
// build-paper sends the same batch predicts: paper-scale scans return
// ~0.5 MB bodies, and with them its throughput swung with host load far
// more than the rest of the run did (a 29% spread over ten runs).
func (w workload) bulk() bulkKind {
	if w.fleet || w.paper {
		return bulkBatch
	}
	return bulkQuery
}

// files returns the encoded artifacts the workload serves and their
// digests. The fleet gets the same model encoded under two notes, so the
// two files differ only in identity.
func (w workload) files(b *built) ([][]byte, []string, error) {
	if !w.fleet {
		return [][]byte{b.bytes}, []string{b.digest}, nil
	}
	var files [][]byte
	var digests []string
	for _, note := range []string{"rollout-a", "rollout-b"} {
		b.art.Note = note
		enc, err := b.art.Encode()
		if err != nil {
			return nil, nil, err
		}
		d, err := b.art.Digest()
		if err != nil {
			return nil, nil, err
		}
		files, digests = append(files, enc), append(digests, d)
	}
	return files, digests, nil
}

func (w workload) deploy(o options, b *built, rec *recorder) (*deployment, error) {
	files, digests, err := w.files(b)
	if err != nil {
		return nil, err
	}
	return deploy(o.dir, files, digests, w.fleet, rec)
}

// prepare draws the seeded request pool over the model's proteins and
// computes every entry's offline answers for the artifacts d serves.
func (w workload) prepare(o options, b *built, d *deployment) ([]request, *oracle, error) {
	orc, err := newOracle(d.files...)
	if err != nil {
		return nil, nil, err
	}
	pool := genStream(o.seed, proteinNames(b), poolSize, w.bulk())
	if err := orc.expect(pool); err != nil {
		return nil, nil, err
	}
	return pool, orc, nil
}

func proteinNames(b *built) []string {
	names := make([]string, b.art.Graph.N())
	for v := range names {
		names[v] = b.art.Graph.Name(v)
	}
	return names
}

// phase is one measured serving phase.
type phase struct {
	warm     loopResult
	windows  []loopResult
	roll     rollStats
	cost     cost    // process CPU, allocation and GC over the measured part
	rss      float64 // peak resident MB sampled over the measured part
	hedges   int64
	dropped  int64
	stateErr error // fleet state after the last rollout, or the connection cap broken
}

func (p *phase) count(res *result) {
	for _, l := range append([]*loopResult{&p.warm}, p.all()...) {
		res.attempted += l.attempted
		res.failed += l.failed
		res.errs = append(res.errs, l.errs...)
	}
	res.attempted += p.roll.attempted
	res.failed += p.roll.failed
	res.errs = append(res.errs, p.roll.errs...)
	if p.stateErr != nil {
		res.attempted++
		res.failed++
		res.errs = append(res.errs, p.stateErr.Error())
	}
}

// measure warms the stack up, then runs the closed loop for d in n
// windows, with rolling rollouts in the background on the fleet.
func (w workload) measure(d *deployment, pool []request, orc *oracle, dur time.Duration, n int, rec *recorder) *phase {
	var cnt connCounter
	client := newClient(connections, &cnt)
	defer client.CloseIdleConnections()
	win := newServable()
	l := &loop{client: client, base: d.base, pool: pool, next: new(atomic.Int64), workers: connections, check: orc.against(win)}
	// Warm-up sends the whole pool once, so connections are open and
	// every answer has been computed once before timing starts.
	p := &phase{warm: l.walk()}
	l.spans = rec
	var hedges0 int64
	if d.router != nil {
		hedges0 = d.router.Metrics().Hedges
	}
	c0 := sampleCost()
	stop := make(chan struct{})
	rss := make(chan float64, 1)
	go func() { rss <- sampleRSS(stop) }()
	done := make(chan rollStats, 1)
	if w.fleet {
		go func() { done <- rollLoop(d.router, d.paths, d.digests, rolloutEvery, win, stop, rec) }()
	} else {
		done <- rollStats{}
	}
	for i := 0; i < n; i++ {
		p.windows = append(p.windows, l.run(dur/time.Duration(n)))
	}
	close(stop)
	p.roll = <-done
	p.rss = <-rss
	p.cost = sampleCost().sub(c0)
	if d.router != nil {
		m := d.router.Metrics()
		p.hedges = m.Hedges - hedges0
		want := d.digests[p.roll.current]
		for _, st := range m.Replicas {
			if st.Digest != want || st.State != "ready" {
				p.stateErr = errors.Join(p.stateErr, fmt.Errorf("after the last rollout replica %s is %s on %s, want ready on %s", st.Replica, st.State, st.Digest, want))
			}
		}
	}
	for _, s := range d.replicas {
		p.dropped += s.Metrics().AccessLogDropped
	}
	if peak := cnt.dialing.peak.Load(); peak > connections {
		p.stateErr = errors.Join(p.stateErr, fmt.Errorf("load client dialed %d connections at once, cap %d", peak, connections))
	}
	return p
}

// rollouter is the part of fleet.Router that rollLoop uses.
type rollouter interface {
	Rollout(ctx context.Context, path, wantDigest string) (fleet.RolloutResult, error)
}

type rollStats struct {
	attempted, failed int64
	current           int // index of the artifact the fleet was last rolled to
	errs              []string
}

// rollLoop rolls the fleet to the other artifact every period until stop
// closes; a rollout in flight when stop closes runs to completion. The
// first starts a quarter period in, so that a stack measured for about a
// second still sees one. It records in win which artifacts the fleet may
// serve: both while a rollout runs, and only the new one once it has
// succeeded. A failed rollout may leave the fleet mixed, so both stay
// servable.
func rollLoop(r rollouter, paths, digests []string, every time.Duration, win *servable, stop <-chan struct{}, rec *recorder) rollStats {
	var st rollStats
	t := time.NewTimer(every / 4)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return st
		case <-t.C:
		}
		next := (st.current + 1) % len(paths)
		win.set(1<<st.current | 1<<next)
		start := rec.now()
		begin := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := r.Rollout(ctx, paths[next], digests[next])
		cancel()
		took := time.Since(begin)
		st.attempted++
		if err != nil {
			st.failed++
			if len(st.errs) < maxErrs {
				st.errs = append(st.errs, fmt.Sprintf("rollout to %s: %v", digests[next], err))
			}
		} else {
			st.current = next
			win.set(1 << next)
		}
		rec.add(span{Trace: "rollout", Name: "fleet.rollout", Parent: -1, Start: start, End: start + took})
		t.Reset(every)
	}
}

func (p *phase) all() []*loopResult {
	out := make([]*loopResult, len(p.windows))
	for i := range p.windows {
		out[i] = &p.windows[i]
	}
	return out
}

// serving sets the end-to-end serving metrics: throughput and the p50 and
// p90 latency of each request class, each the median over the windows of
// the phases.
func serving(ms *metricSet, phases ...*phase) error {
	var all []*loopResult
	for _, p := range phases {
		all = append(all, p.all()...)
	}
	vals := map[string][]float64{}
	for _, w := range all {
		var ok int
		for c := range w.lat {
			ok += len(w.lat[c])
			sortDurations(w.lat[c])
		}
		vals["rps"] = append(vals["rps"], float64(ok)/w.wall.Seconds())
		for _, q := range []struct {
			c    class
			name string
		}{{classPredict, "predict"}, {classBulk, "query"}} {
			for _, pct := range []int{50, 90} {
				v, err := percentile(w.lat[q.c], pct)
				if err != nil {
					return fmt.Errorf("%s latency: %w", q.name, err)
				}
				name := fmt.Sprintf("%s_p%d_us", q.name, pct)
				vals[name] = append(vals[name], us(v))
			}
		}
	}
	for name, v := range vals {
		ms.set(name, median(v))
	}
	return nil
}

// tail returns the pct-th percentile of class c over the whole phase.
func (p *phase) tail(c class, pct int) (time.Duration, error) {
	var lat []time.Duration
	for _, w := range p.all() {
		lat = append(lat, w.lat[c]...)
	}
	sortDurations(lat)
	return percentile(lat, pct)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// modelSeed is the interactome seed of a run's i-th model.
func modelSeed(seed int64, i int) int64 { return seed*setups + int64(i) }

// run is the untraced run: every end-to-end metric. build-paper builds the
// paper-scale model paperBuilds times; after each build it sets a stack up
// loads times and measures the last stack for its share of the serving
// phase, in windows. Every build must give the same artifact, and only the
// first is evaluated; peak memory is the median of the builds' peaks. The
// serving workloads set up setups stacks, each over its own -quick model
// from an interactome drawn from the seed, and measure each stack for one
// window, so a median over windows is also a median over models.
func (w workload) run(o options) (*result, error) {
	res := &result{metrics: newMetricSet()}
	ms := res.metrics
	var builds, setupTimes, precision, rss []float64
	var phases []*phase
	var stopped []<-chan error
	drain := func() error {
		for _, done := range stopped {
			if err := <-done; err != nil {
				return err
			}
		}
		stopped = nil
		return nil
	}
	var firstDigest string
	build := func(seed int64) (*built, error) {
		if w.paper {
			// Each paper build's peak is its own: earlier stacks are
			// stopped, their memory handed back and the high-water mark
			// restarted.
			if err := drain(); err != nil {
				return nil, err
			}
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		b, err := buildLamod(modelConfig(w.paper, seed))
		if err != nil {
			return nil, err
		}
		res.attempted++
		builds = append(builds, b.wall.Seconds())
		if w.paper {
			peak, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			rss = append(rss, peak)
			if firstDigest != "" {
				if b.digest != firstDigest {
					res.failed++
					res.errs = append(res.errs, fmt.Sprintf("paper build %d made artifact %s, the first made %s", len(builds), b.digest, firstDigest))
				}
				return b, nil
			}
			firstDigest = b.digest
		}
		q, err := evaluate(b.bytes)
		if err != nil {
			return nil, err
		}
		precision = append(precision, q.precisionAt1)
		return b, nil
	}
	serve := func(o options, b *built, d *deployment, dur time.Duration, n int) error {
		pool, orc, err := w.prepare(o, b, d)
		if err != nil {
			return errors.Join(err, d.stop())
		}
		p := w.measure(d, pool, orc, dur, n, nil)
		stopped = append(stopped, d.stopInBackground())
		p.count(res)
		phases = append(phases, p)
		if !w.paper {
			rss = append(rss, p.rss)
		}
		return nil
	}

	if w.paper {
		for range paperBuilds {
			b, err := build(0)
			if err != nil {
				return nil, err
			}
			var d *deployment
			for i := 0; i < loads; i++ {
				runtime.GC()
				start := time.Now()
				if d, err = w.deploy(o, b, nil); err != nil {
					return nil, err
				}
				setupTimes = append(setupTimes, time.Since(start).Seconds())
				if i < loads-1 {
					if err := d.stop(); err != nil {
						return nil, err
					}
				}
			}
			if err := serve(o, b, d, o.seconds/paperBuilds, windows); err != nil {
				return nil, err
			}
		}
	} else {
		for i := 0; i < setups; i++ {
			mo := o
			mo.seed = modelSeed(o.seed, i)
			runtime.GC()
			start := time.Now()
			b, err := build(mo.seed)
			if err != nil {
				return nil, err
			}
			d, err := w.deploy(mo, b, nil)
			if err != nil {
				return nil, err
			}
			setupTimes = append(setupTimes, time.Since(start).Seconds())
			if err := serve(mo, b, d, o.seconds/setups, 1); err != nil {
				return nil, err
			}
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}
	if err := serving(ms, phases...); err != nil {
		return nil, err
	}
	ms.set("setup_s", median(setupTimes))
	ms.set("build_s", median(builds))
	ms.set("peak_rss_mb", median(rss))
	ms.set("lmp_precision_at_1", median(precision))
	return res, nil
}

// runTraced is the traced run: the same build and serving phase once with
// tracing off, for reference, then once with spans recorded around every
// layer, giving every per-layer metric and the tracing overhead.
func (w workload) runTraced(o options, rec *recorder) (*result, error) {
	cfg := modelConfig(true, 0)
	if !w.paper {
		o.seed = modelSeed(o.seed, 0)
		cfg = modelConfig(false, o.seed)
	}
	res := &result{metrics: newMetricSet()}
	ms := res.metrics

	b0, err := buildLamod(cfg)
	if err != nil {
		return nil, err
	}
	d0, err := w.deploy(o, b0, nil)
	if err != nil {
		return nil, err
	}
	pool, orc, err := w.prepare(o, b0, d0)
	if err != nil {
		return nil, errors.Join(err, d0.stop())
	}
	p0 := w.measure(d0, pool, orc, o.seconds, windows, nil)
	if err := d0.stop(); err != nil {
		return nil, err
	}
	p0.count(res)
	ref := newMetricSet()
	if err := serving(ref, p0); err != nil {
		return nil, err
	}

	c0 := sampleCost()
	b1, err := buildTraced(cfg, rec, ms)
	if err != nil {
		return nil, err
	}
	buildCost := sampleCost().sub(c0)
	res.attempted += 2
	if b1.digest != b0.digest {
		return nil, fmt.Errorf("traced build made artifact %s, untraced build made %s", b1.digest, b0.digest)
	}
	d1, err := w.deploy(o, b1, rec)
	if err != nil {
		return nil, err
	}
	p1 := w.measure(d1, pool, orc, o.seconds, windows, rec)
	if err := d1.stop(); err != nil {
		return nil, err
	}
	p1.count(res)
	traced := newMetricSet()
	if err := serving(traced, p1); err != nil {
		return nil, err
	}
	if err := measureEngine(orc.models[0].view, b1.art.Graph.N(), proteinNames(b1), o.seed, rec, ms); err != nil {
		return nil, err
	}
	q, err := evaluate(b1.bytes)
	if err != nil {
		return nil, err
	}
	ms.set("eval.loo_s", q.loo.Seconds())
	ms.set("eval.lmp_recall_at_13", q.recallAt13)
	analyzeServing(rec.snapshot(), ms)

	ms.set("fleet.hedges", float64(p1.hedges))
	ms.set("obs.access_log_dropped", float64(p1.dropped))
	procCost := p1.cost
	if w.paper {
		procCost = buildCost
	}
	ms.set("process.gc_cycles", float64(procCost.cycles))
	ms.set("process.alloc_mb", float64(procCost.alloc)/(1<<20))
	pct := func(after, before float64) float64 { return (after - before) / before * 100 }
	ms.set("overhead.build_s_pct", pct(b1.wall.Seconds(), b0.wall.Seconds()))
	ms.set("overhead.rps_pct", pct(traced.vals["rps"], ref.vals["rps"]))
	ms.set("overhead.predict_p50_us_pct", pct(traced.vals["predict_p50_us"], ref.vals["predict_p50_us"]))
	for _, q := range []struct {
		c    class
		name string
	}{{classPredict, "predict"}, {classBulk, "query"}} {
		v, err := p0.tail(q.c, 99)
		if err != nil {
			return nil, fmt.Errorf("%s p99: %w", q.name, err)
		}
		ms.set("diag."+q.name+"_p99_us", us(v))
	}
	return res, nil
}

// measureEngine times query.Execute called directly on the served View,
// once per plan shape, outside HTTP.
func measureEngine(view *query.View, rows int, names []string, seed int64, rec *recorder, ms *metricSet) error {
	const reps = 200
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	for shape := 0; shape < numShapes; shape++ {
		var plan query.Plan
		if err := json.Unmarshal([]byte(shapePlan(shape, rng, names)), &plan); err != nil {
			return err
		}
		times := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			start := rec.now()
			begin := time.Now()
			if _, fe := query.Execute(view, &plan, 0); fe != nil {
				return fe
			}
			took := time.Since(begin)
			rec.add(span{Trace: "engine", Name: "query.execute." + shapeNames[shape], Parent: -1, Start: start, End: start + took})
			times = append(times, us(took))
			total += took
		}
		ms.set("query.execute_us."+shapeNames[shape], median(times))
	}
	ms.set("query.ns_per_row", float64(total.Nanoseconds())/float64(reps*numShapes*rows))
	return nil
}
