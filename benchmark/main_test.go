package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/wal"
)

// declared reads the metric units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.5, trace: trace, tiny: true, workdir: t.TempDir()}
}

func TestLayerUnitsMatchManifest(t *testing.T) {
	e2e, layer := declared(t)
	if len(e2e) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark reports %d", len(e2e), len(endToEnd))
	}
	for _, name := range endToEnd {
		if _, ok := e2e[name]; !ok {
			t.Errorf("end-to-end metric %s is not declared", name)
		}
	}
	if len(layer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, layerUnits %d", len(layer), len(layerUnits))
	}
	for name, unit := range layerUnits {
		if layer[name] != unit {
			t.Errorf("per-layer %s: unit %q, BENCHMARK.json declares %q", name, unit, layer[name])
		}
	}
	for w, names := range workloadLayers {
		for _, name := range names {
			if _, ok := layerUnits[name]; !ok {
				t.Errorf("%s measures undeclared per-layer metric %s", w, name)
			}
		}
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range sortedKeys(workloads) {
		for i, units := range []map[string]string{e2e, layer} {
			res, err := run(tinyOptions(t, w, i == 1), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, i, err)
			}
			if len(res.Metrics) != len(units) {
				t.Errorf("%s trace=%d: %d metrics, want %d: %v", w, i, len(res.Metrics), len(units), sortedKeys(res.Metrics))
			}
			for _, name := range sortedKeys(units) {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w, i, name)
					continue
				}
				if m.Unit != units[name] {
					t.Errorf("%s trace=%d: %s has unit %q, BENCHMARK.json declares %q", w, i, name, m.Unit, units[name])
				}
				if i == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s reads %v", w, name, m.Value)
				}
			}
			// The tiny pipeline is too short for the networks to find
			// highlights; the other workloads must be correct even tiny.
			if w != "pipeline" && !res.Correct {
				t.Errorf("%s trace=%d: %d of %d operations failed", w, i, res.Failed, res.Attempted)
			}
		}
	}
}

func TestWidthAboveGOMAXPROCSRefused(t *testing.T) {
	opt := tinyOptions(t, "serve", false)
	opt.width = runtime.GOMAXPROCS(0) + 1
	if _, err := run(opt, io.Discard); err == nil {
		t.Fatal("a width above GOMAXPROCS was accepted")
	}
}

func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	b := newBench(tinyOptions(t, "serve", false))
	s, err := startServe(b, serveSizes(b.opt))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for _, stmt := range s.stmts {
		s.ref[stmt] += "corrupted"
	}
	closedLoop(b, nil, s, 1, 200*time.Millisecond)
	if b.failed.Load() == 0 {
		t.Fatal("wire answers compared with corrupted references all passed")
	}
}

func TestShadowDriftCountsAsFailure(t *testing.T) {
	cfg := pipelineConfig(tinyOptions(t, "pipeline", true))
	run, err := shadowPipeline(nil, cfg, filepath.Join(t.TempDir(), "shadow"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[answerKey][]string{}
	for k, lines := range run.answers {
		want[k] = lines
	}
	b := newBench(options{})
	if err := checkShadow(b, cfg, want, run); err != nil {
		t.Fatal(err)
	}
	if n := b.failed.Load(); n != 0 {
		t.Fatalf("an unchanged shadow failed %d checks: %v", n, b.failures)
	}

	k := answerKey{pipelineVideos[0], f1.EventHighlight}
	want[k] = append([]string{"0 1 1"}, want[k]...)
	run.feats[pipelineVideos[1]].Motion[0] += 0.5
	b = newBench(options{})
	if err := checkShadow(b, cfg, want, run); err != nil {
		t.Fatal(err)
	}
	if n := b.failed.Load(); n != 2 {
		t.Fatalf("a changed answer and a changed feature failed %d checks, want 2: %v", n, b.failures)
	}
}

func TestTruncatedRecoveryCountsAsFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	store := monet.NewStore()
	mgr, err := wal.Open(dir, store, wal.Options{Sync: walSync})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: liveVideo, Duration: 10, FPS: 10}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		for _, name := range []string{"motion", "audioex"} {
			if _, err := cat.AppendFeatureSamples(liveVideo, name, 10, []float64{0.1, 0.2, float64(step)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	acked, err := storeImage(store)
	if err != nil {
		t.Fatal(err)
	}

	for _, truncate := range []bool{false, true} {
		b := newBench(options{})
		cp := filepath.Join(t.TempDir(), "copy")
		if err := copyTree(dir, cp); err != nil {
			t.Fatal(err)
		}
		if truncate {
			seg := lastSegment(t, filepath.Join(cp, "wal"))
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := recoverCopy(b, cp, acked); err != nil {
			t.Fatal(err)
		}
		if got := b.failed.Load() > 0; got != truncate {
			t.Errorf("truncated=%v: recovery check failed=%v", truncate, got)
		}
	}
}

// lastSegment returns the path of the newest WAL segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("reading %s: %v", dir, err)
	}
	return filepath.Join(dir, entries[len(entries)-1].Name())
}
