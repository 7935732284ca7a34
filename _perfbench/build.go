package main

import (
	"fmt"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/eval"
	"lamofinder/internal/experiments"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/obs"
	"lamofinder/internal/par"
)

// modelConfig returns the preset `lamod build` starts from (the paper's
// Figure-9 scale, or -quick) with -seed applied as lamod applies it: 0
// keeps the preset's seed.
func modelConfig(paper bool, seed int64) experiments.Figure9Config {
	cfg := experiments.DefaultFigure9Config()
	if !paper {
		cfg = experiments.QuickFigure9Config()
	}
	if seed != 0 {
		cfg.MIPS.Seed = seed
	}
	return cfg
}

// built is one model build: the artifact, its encoded bytes and digest,
// and the build's wall time.
type built struct {
	art    *artifact.Artifact
	bytes  []byte
	digest string
	wall   time.Duration
}

// buildLamod makes exactly the calls `lamod build` makes (cmd/lamod
// runBuild), from the synthetic interactome to the encoded, indexed
// artifact; the bytes stay in memory instead of going to a file.
func buildLamod(cfg experiments.Figure9Config) (*built, error) {
	start := time.Now()
	rec := &obs.StageRecorder{}
	mined := experiments.MineLabeledTraced(cfg, rec)
	m := mined.MIPS
	names := make([]string, len(m.CategoryTerm))
	for c, ct := range m.CategoryTerm {
		names[c] = m.Ontology.ID(ct)
	}
	art, err := artifact.Build("synthetic-mips", "", m.Task, names,
		m.Corpus, m.Corpus.DirectCounts(), cfg.Label.MinDirect, mined.Labeled)
	if err != nil {
		return nil, err
	}
	st := rec.Start("ranking")
	art.BuildIndex(0)
	st.End(int64(art.Graph.N()), par.Workers(0))
	art.Stats = rec.Stages()
	b, err := art.Encode()
	if err != nil {
		return nil, err
	}
	digest, err := art.Digest()
	if err != nil {
		return nil, err
	}
	return &built{art: art, bytes: b, digest: digest, wall: time.Since(start)}, nil
}

// buildTraced composes the same pipeline from each layer's public
// functions, with a span, CPU time and bytes allocated recorded around
// every call, and the layers' own counters. It must produce the digest
// buildLamod produces for the same config.
func buildTraced(cfg experiments.Figure9Config, rec *recorder, ms *metricSet) (*built, error) {
	root := rec.add(span{Trace: "build", Name: "build", Parent: -1, Start: rec.now()})
	walls := map[string]time.Duration{}
	stage := func(name string, f func()) {
		c0 := sampleCost()
		s := span{Trace: "build", Name: name, Parent: root, Start: rec.now()}
		f()
		s.End = rec.now()
		rec.add(s)
		c := sampleCost().sub(c0)
		walls[name] = s.dur()
		ms.set(name+"_s", s.dur().Seconds())
		if name == "motif.census" || name == "motif.uniqueness" || name == "label.labeling" {
			ms.set(name+"_cpu_s", c.cpu.Seconds())
			ms.set(name+"_alloc_mb", float64(c.alloc)/(1<<20))
		}
	}

	var m *dataset.MIPS
	stage("dataset.gen", func() { m = dataset.NewMIPS(cfg.MIPS) })
	net := m.Task.Network
	var mined, unique []*motif.Motif
	stage("motif.census", func() { mined = motif.Find(net, cfg.Mine) })
	stage("motif.uniqueness", func() {
		motif.ScoreUniqueness(net, mined, cfg.Null)
		unique = motif.FilterUnique(mined, cfg.MinUniqueness)
	})
	var labeled []*label.LabeledMotif
	var labeler *label.Labeler
	// The labeler reads the clock only when one is injected, as
	// MineLabeledTraced injects it for `lamod build`.
	cfg.Label.Now = time.Now
	stage("label.labeling", func() {
		labeler = label.NewLabeler(m.Corpus, cfg.Label)
		labeled = labeler.LabelAll(unique)
	})
	busy, occs := labeler.ClusterStats()

	var art *artifact.Artifact
	var err error
	stage("artifact.build", func() {
		names := make([]string, len(m.CategoryTerm))
		for c, ct := range m.CategoryTerm {
			names[c] = m.Ontology.ID(ct)
		}
		art, err = artifact.Build("synthetic-mips", "", m.Task, names,
			m.Corpus, m.Corpus.DirectCounts(), cfg.Label.MinDirect, labeled)
	})
	if err != nil {
		return nil, err
	}
	stage("artifact.index", func() { art.BuildIndex(0) })
	// The stage table lamod build stores: its presence, not its content,
	// is part of the artifact's identity (it selects the format version).
	workers := par.Workers(cfg.Label.Parallelism)
	art.Stats = []obs.StageStat{
		{Name: "census", Wall: walls["motif.census"], Items: int64(len(mined)), Workers: 1},
		{Name: "uniqueness", Wall: walls["motif.uniqueness"], Items: int64(len(unique)), Workers: par.Workers(cfg.Null.Parallelism)},
		{Name: "labeling", Wall: walls["label.labeling"], Items: int64(len(labeled)), Workers: workers, Busy: busy},
		{Name: "clustering", Wall: busy, Items: occs, Workers: workers},
		{Name: "ranking", Wall: walls["artifact.index"], Items: int64(art.Graph.N()), Workers: par.Workers(0)},
	}
	var b []byte
	var digest string
	stage("artifact.encode", func() {
		if b, err = art.Encode(); err == nil {
			digest, err = art.Digest()
		}
	})
	if err != nil {
		return nil, err
	}
	rec.end(root)
	spans := rec.snapshot()

	// The stage rows and build.other_s partition the wall time: other is
	// the root's self time, and the rows must not overlap.
	wall := spans[root].dur()
	rows := children(spans)[root]
	other := selfTime(spans[root], rows)
	var sum time.Duration
	for _, s := range rows {
		sum += s.dur()
	}
	if other < 0 || sum+other != wall {
		return nil, fmt.Errorf("build breakdown is not a partition: rows %v + other %v != wall %v", sum, other, wall)
	}
	ms.set("build.other_s", other.Seconds())
	ms.set("motif.classes", float64(len(mined)))
	ms.set("motif.unique_ratio", float64(len(unique))/float64(max(len(mined), 1)))
	ms.set("label.cluster_busy_s", busy.Seconds())
	ms.set("label.occurrences", float64(occs))
	ms.set("label.labeled_motifs", float64(len(labeled)))
	ms.set("artifact.bytes", float64(len(b)))
	return &built{art: art, bytes: b, digest: digest, wall: wall}, nil
}

// quality runs the paper's leave-one-out evaluation of the labeled-motif
// predictor (top 13 categories) on the artifact decoded from its bytes.
type quality struct {
	precisionAt1, recallAt13 float64
	loo                      time.Duration
}

func evaluate(encoded []byte) (quality, error) {
	art, err := artifact.Decode(encoded)
	if err != nil {
		return quality{}, err
	}
	scorer := art.NewScorer()
	start := time.Now()
	c := eval.LeaveOneOut(art.Task(), scorer, 13)
	loo := time.Since(start)
	if len(c.Points) < 13 {
		return quality{}, fmt.Errorf("leave-one-out curve has %d points, want 13", len(c.Points))
	}
	return quality{precisionAt1: c.Points[0].Precision, recallAt13: c.Points[12].Recall, loo: loo}, nil
}
