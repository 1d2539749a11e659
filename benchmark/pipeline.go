package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cobra/internal/audio"
	"cobra/internal/cobra"
	"cobra/internal/dbn"
	"cobra/internal/eval"
	"cobra/internal/f1"
	"cobra/internal/keyword"
	"cobra/internal/monet"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/synth"
	"cobra/internal/video"
	"cobra/internal/vtext"
	"cobra/internal/wal"
)

// walSync is the WAL fsync policy of every durable workload, the
// server's default.
const walSync = wal.SyncAlways

// setupReps is how many times each run sets its workload up; setup_s is
// the median. The pipeline's cold set-up takes milliseconds, dominated
// by a few fsyncs, so it takes more samples.
const (
	setupReps         = 3
	pipelineSetupReps = 21
)

// pipelineRounds is the least number of cold rounds a pipeline run
// measures. One round takes about 20 s on 2 cores, and the first is the
// slowest, so a run that fits a second round into --seconds and one that
// does not would report different medians.
const pipelineRounds = 2

// The pipeline workload asks, on two connections at once, for the
// highlights and the excited speech of two different simulated races.
// Nothing is materialized beforehand, so the preprocessor runs the
// paper's whole path: render, audio/video/text extraction, DBN training
// and filtering, event materialization into a WAL-backed store.
var (
	pipelineVideos = []string{"german-gp", "belgian-gp"}
	pipelineEvents = []string{f1.EventHighlight, f1.EventExcited}
)

// pipelineConfig sizes the simulated races: long enough that the
// trained networks find highlights, short enough for a run to finish in
// well under a minute.
func pipelineConfig(opt options) f1.ExpConfig {
	cfg := f1.DefaultExpConfig()
	cfg.RaceDur, cfg.TrainDur, cfg.TrainSegments, cfg.EMIterations = 120, 80, 4, 3
	if opt.tiny {
		cfg.RaceDur, cfg.TrainDur, cfg.TrainSegments = 12, 8, 2
	}
	cfg.Seed = opt.seed
	return cfg
}

// pipelineSys is one cold server: an empty WAL-backed catalog that
// knows the raw races and the extraction engines, and two clients.
type pipelineSys struct {
	dir     string
	mgr     *wal.Manager
	srv     *server.Server
	corpus  *f1.Corpus
	clients []*server.Client
}

func startPipeline(cfg f1.ExpConfig, dir string) (*pipelineSys, error) {
	store := monet.NewStore()
	mgr, err := wal.Open(dir, store, wal.Options{Sync: walSync})
	if err != nil {
		return nil, err
	}
	p := &pipelineSys{dir: dir, mgr: mgr}
	cat := cobra.NewCatalog(store)
	pre := cobra.NewPreprocessor(cat)
	p.corpus = f1.NewCorpus(cfg)
	if err := p.corpus.IngestVideos(cat); err != nil {
		p.close()
		return nil, err
	}
	p.corpus.RegisterExtractors(pre)
	p.srv = server.New(pre, nil)
	p.srv.SetCache(qcache.New(qcache.DefaultMaxBytes))
	addr, err := p.srv.Listen("127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	for range pipelineVideos {
		c, err := server.Dial(addr.String())
		if err != nil {
			p.close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

func (p *pipelineSys) close() {
	for _, c := range p.clients {
		c.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	if err := p.mgr.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline: closing WAL:", err)
	}
	os.RemoveAll(p.dir)
}

// pipelineQuery is the statement asking for event ev of video v.
func pipelineQuery(v, ev string) string {
	return fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('%s')", v, ev)
}

// answerKey names one pipeline answer.
type answerKey struct{ video, event string }

// ask sends every pipeline query, one connection per race, and returns
// the answers and the time until the last one arrived.
func (p *pipelineSys) ask(b *bench) (time.Duration, map[answerKey][]string) {
	var mu sync.Mutex
	answers := map[answerKey][]string{}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, v := range pipelineVideos {
		wg.Add(1)
		go func(c *server.Client, v string) {
			defer wg.Done()
			for _, ev := range pipelineEvents {
				b.op()
				lines, err := c.Do(pipelineQuery(v, ev))
				if err != nil {
					b.fail("pipeline %s %s: %v", v, ev, err)
					continue
				}
				mu.Lock()
				answers[answerKey{v, ev}] = lines
				mu.Unlock()
			}
		}(p.clients[i], v)
	}
	wg.Wait()
	return time.Since(t0), answers
}

// parseSegments reads wire answer lines ("start end confidence attrs"),
// dropping the zero-confidence availability markers the extractors
// store when they find nothing.
func parseSegments(lines []string) ([]eval.Segment, error) {
	var out []eval.Segment
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 3 {
			return nil, fmt.Errorf("malformed answer line %q", l)
		}
		s, err1 := strconv.ParseFloat(f[0], 64)
		e, err2 := strconv.ParseFloat(f[1], 64)
		c, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || e < s {
			return nil, fmt.Errorf("malformed answer line %q", l)
		}
		if c > 0 {
			out = append(out, eval.Segment{Start: s, End: e})
		}
	}
	return out, nil
}

// scorePipeline scores the answers against the races' ground truth,
// pooled over both races, and reports highlight and excited-speech F1.
// Each answer must parse and find at least one true segment.
func scorePipeline(b *bench, corpus *f1.Corpus, answers map[answerKey][]string) (hl, ex float64) {
	scores := map[string]float64{}
	for _, ev := range pipelineEvents {
		var pred, truth []eval.Segment
		for i, v := range pipelineVideos {
			race, ok := corpus.Race(v)
			if !ok {
				b.fail("pipeline: no race %s", v)
				continue
			}
			segs, err := parseSegments(answers[answerKey{v, ev}])
			b.check(err == nil, "pipeline %s %s: %v", v, ev, err)
			gt := race.Highlights
			if ev == f1.EventExcited {
				gt = race.Excitement
			}
			// Offset each race so pooled segments never overlap.
			off := float64(i) * 1e6
			for _, s := range segs {
				pred = append(pred, eval.Segment{Start: s.Start + off, End: s.End + off})
			}
			for _, s := range gt {
				truth = append(truth, eval.Segment{Start: s.Start + off, End: s.End + off})
			}
		}
		pr := eval.Score(pred, truth)
		b.check(pr.TP > 0, "pipeline %s: no returned segment matches the ground truth (%d returned, %d true)", ev, len(pred), len(truth))
		scores[ev] = pr.F1()
	}
	return scores[f1.EventHighlight], scores[f1.EventExcited]
}

func runPipeline(b *bench) error {
	cfg := pipelineConfig(b.opt)
	n := 0
	setup := func() (*pipelineSys, error) {
		n++
		var p *pipelineSys
		err := b.timeSetup(func() (err error) {
			p, err = startPipeline(cfg, filepath.Join(b.opt.workdir, fmt.Sprintf("data-%d", n)))
			return err
		})
		return p, err
	}
	for i := 0; i < pipelineSetupReps-1; i++ {
		p, err := setup()
		if err != nil {
			return err
		}
		p.close()
	}

	// Cold runs until the measured time is used up, and at least
	// pipelineRounds of them, so every run's median is over the same
	// number of rounds; the first one's answers are scored and every
	// later one must repeat them.
	var (
		times []float64
		first map[answerKey][]string
		heap  float64
		wal0  map[string]int64
		wal1  map[string]int64
	)
	start := time.Now()
	for len(times) < pipelineRounds || time.Since(start).Seconds() < b.opt.seconds {
		p, err := setup()
		if err != nil {
			return err
		}
		before := counters()
		d, answers := p.ask(b)
		after := counters()
		times = append(times, d.Seconds())
		if first == nil {
			first, wal0, wal1 = answers, before, after
			hl, ex := scorePipeline(b, p.corpus, answers)
			b.setLayer("highlight_f1", "ratio", hl)
			b.setLayer("excited_f1", "ratio", ex)
		} else {
			for k, want := range first {
				b.check(joinLines(answers[k]) == joinLines(want), "pipeline %s %s: answer differs from the first cold run", k.video, k.event)
			}
		}
		heap = heapMB()
		p.close()
	}
	b.setE2E("latency_ms", "ms", median(times)*1000)
	b.setE2E("heap_mb", "MiB", heap)
	b.setLayer("pipeline_s", "s", median(times))
	if b.tr == nil {
		return nil
	}

	b.setLayer("wal.records", "count", delta(wal0, wal1, "wal.records"))
	b.setLayer("wal.fsyncs", "count", delta(wal0, wal1, "wal.fsyncs"))
	// The shadow runs once untraced, then traced; the difference is the
	// tracing overhead. Both must reproduce the program: the same
	// features as f1.Extract and the same answers as the cold runs.
	plain, err := shadowPipeline(nil, cfg, filepath.Join(b.opt.workdir, "plain"))
	if err != nil {
		return err
	}
	traced, err := shadowPipeline(b.tr, cfg, filepath.Join(b.opt.workdir, "shadow"))
	if err != nil {
		return err
	}
	if err := checkShadow(b, cfg, first, plain, traced); err != nil {
		return err
	}
	lt := b.tr.selfTimes()
	var covered time.Duration
	for _, name := range pipelineLayers {
		covered += lt.self[name]
		b.setLayer(name+"_s", "s", lt.self[name].Seconds())
	}
	b.setLayer("extract.frames", "count", float64(traced.frames))
	// What the layer spans leave of the cold runs' end-to-end time. It
	// is negative when the program overlaps work the shadow runs in turn.
	b.setLayer("trace.unaccounted_ms", "ms", median(times)*1000-ms(covered))
	b.setLayer("trace.overhead_ms", "ms", ms(traced.elapsed-plain.elapsed))
	return nil
}

// pipelineLayers names the shadow's layer spans.
var pipelineLayers = []string{
	"synth.render_audio", "synth.render_frames", "audio.analyze", "keyword.spot",
	"video.motion", "video.detect", "vtext.recognize", "dbn.learn", "dbn.filter",
	"cobra.materialize",
}

// checkShadow counts a failure for every shadow feature set that differs
// from f1.Extract on the same race and for every shadow answer that
// differs from the cold runs' answer.
func checkShadow(b *bench, cfg f1.ExpConfig, want map[answerKey][]string, runs ...shadowRun) error {
	ref := make([]*f1.Features, len(pipelineVideos))
	errs := make([]error, len(pipelineVideos))
	var wg sync.WaitGroup
	for i, v := range pipelineVideos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref[i], errs[i] = f1.Extract(runs[0].feats[v].Race, f1.Options{Seed: cfg.Seed})
		}()
	}
	wg.Wait()
	for _, r := range runs {
		for i, v := range pipelineVideos {
			if errs[i] != nil {
				return errs[i]
			}
			// Each run generated its own race; compare it by value.
			f := *r.feats[v]
			b.check(reflect.DeepEqual(*f.Race, *ref[i].Race), "pipeline shadow %s: race differs from the corpus's", v)
			f.Race = ref[i].Race
			b.check(reflect.DeepEqual(&f, ref[i]), "pipeline shadow %s: features differ from f1.Extract", v)
		}
		for k, lines := range want {
			b.check(joinLines(r.answers[k]) == joinLines(lines), "pipeline shadow %s %s: answer differs from the cold run's", k.video, k.event)
		}
	}
	return nil
}

// Segment settings of the f1 event extractors (threshold 0.5; highlights
// last at least 6 s, excited speech 2 s; gaps under 2 s merge).
var (
	highlightSegs = eval.SegmentConfig{StepDur: f1.ClipDur, Threshold: 0.5, MinDuration: 6, MergeGap: 2}
	excitedSegs   = eval.SegmentConfig{StepDur: f1.ClipDur, Threshold: 0.5, MinDuration: 2, MergeGap: 2}
)

// Store prefixes under which the extractors save the trained networks.
const (
	avModelPrefix    = "cobra/model/av-dbn"
	audioModelPrefix = "cobra/model/audio-dbn"
)

// subEventNodes maps the sub-event types a highlight is attributed to
// onto their audio-visual network nodes.
var subEventNodes = map[string]string{
	f1.EventStart: f1.NodeStart, f1.EventFlyOut: f1.NodeFlyOut, f1.EventPassing: f1.NodePassing,
}

// shadowRun is the outcome of one shadow pipeline.
type shadowRun struct {
	elapsed time.Duration
	frames  int
	feats   map[string]*f1.Features
	answers map[answerKey][]string
}

// shadowPipeline is the traced counterpart of one cold pipeline run. It
// makes the same sequence of layer calls f1.Extract, the corpus's DBN
// engines and their event extractors make, each under a benchmark-side
// span, so the per-layer split comes from outside the program. Its write
// step is the extractors': events and the networks' parameters, no
// feature columns. After the timed part it asks the pipeline queries of
// its own catalog, for checkShadow.
func shadowPipeline(tr *tracer, cfg f1.ExpConfig, dir string) (shadowRun, error) {
	run := shadowRun{feats: map[string]*f1.Features{}, answers: map[answerKey][]string{}}
	store := monet.NewStore()
	mgr, err := wal.Open(dir, store, wal.Options{Sync: walSync})
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)
	defer mgr.Close()
	cat := cobra.NewCatalog(store)
	races := map[string]*synth.Race{}
	for _, v := range pipelineVideos {
		races[v] = synth.GenerateRace(profileOf(v), cfg.RaceDur, cfg.Seed)
		if err := cat.PutVideo(cobra.Video{Name: v, Duration: races[v].Duration, FPS: synth.FPS}); err != nil {
			return run, err
		}
	}

	trace := tr.newTrace()
	t0 := time.Now()
	root := tr.begin("pipeline", trace, 0)
	for _, v := range pipelineVideos {
		ex := tr.begin("f1.extract", trace, root)
		f, n, err := shadowExtract(tr, trace, ex, races[v], cfg.Seed)
		tr.end(ex)
		if err != nil {
			return run, err
		}
		run.feats[v] = f
		run.frames += n
	}

	// Both networks train on the German GP prefix, as the corpus does.
	train := run.feats[pipelineVideos[0]]
	nTrain := min(int(cfg.TrainDur/f1.ClipDur), train.N)
	var av, aud *dbn.DBN
	tr.do("dbn.learn", trace, root, func() {
		if av, err = f1.NewAVDBN(true); err != nil {
			return
		}
		em := dbn.DefaultEMConfig()
		em.MaxIterations, em.Anchor = cfg.EMIterations, 60
		if _, err = av.LearnEM(split(train.AVObservations(true)[:nTrain], 6), em); err != nil {
			return
		}
		if aud, err = f1.NewAudioDBN(f1.FullyParameterized, f1.TemporalFig8); err != nil {
			return
		}
		em.Anchor = 10
		_, err = aud.LearnEM(split(train.AudioObservations()[:nTrain], cfg.TrainSegments), em)
	})
	if err != nil {
		return run, err
	}

	// marginals holds, per race, the probability series of the highlight,
	// each sub-event and excited speech, keyed by event type.
	marginals := map[string]map[string][]float64{}
	for _, v := range pipelineVideos {
		f := run.feats[v]
		m := map[string][]float64{}
		marginals[v] = m
		tr.do("dbn.filter", trace, root, func() {
			var res *dbn.FilterResult
			if res, err = av.Filter(f.AVObservations(true), nil); err != nil {
				return
			}
			if m[f1.EventHighlight], err = res.MarginalSeries(f1.NodeHighlight, 1); err != nil {
				return
			}
			for typ, node := range subEventNodes {
				var s []float64
				if s, err = res.MarginalSeries(node, 1); err != nil {
					return
				}
				m[typ] = liftSeries(s)
			}
			if res, err = aud.Filter(f.AudioObservations(), nil); err != nil {
				return
			}
			m[f1.EventExcited], err = res.MarginalSeries(f1.NodeEA, 1)
		})
		if err != nil {
			return run, err
		}
	}

	tr.do("cobra.materialize", trace, root, func() {
		err = materialize(cat, av, aud, marginals)
	})
	if err != nil {
		return run, err
	}
	tr.end(root)
	run.elapsed = time.Since(t0)

	eng := query.NewEngine(cobra.NewPreprocessor(cat))
	for _, v := range pipelineVideos {
		for _, ev := range pipelineEvents {
			if run.answers[answerKey{v, ev}], err = runCOQL(eng, pipelineQuery(v, ev)); err != nil {
				return run, err
			}
		}
	}
	return run, nil
}

// materialize makes the event extractors' writes for each race: the
// highlights with their attributed sub-events, then the excited speech,
// each type with a zero-confidence availability marker when empty. Each
// network's parameters are saved when it is first used, as
// loadOrTrainAV and loadOrTrainAudio do.
func materialize(cat *cobra.Catalog, av, aud *dbn.DBN, marginals map[string]map[string][]float64) error {
	for i, v := range pipelineVideos {
		m := marginals[v]
		if i == 0 {
			av.SaveParams(cat.Store(), avModelPrefix)
		}
		hs := m[f1.EventHighlight]
		highlights := eval.Segments(hs, highlightSegs)
		var events []cobra.Event
		for _, h := range highlights {
			events = append(events, segmentEvent(v, f1.EventHighlight, h, hs))
		}
		sub := map[string][]float64{}
		for typ := range subEventNodes {
			sub[typ] = m[typ]
		}
		attr := eval.Attribution{Series: sub, StepDur: f1.ClipDur, MinProb: 0.2}
		for _, s := range attr.Attribute(highlights) {
			events = append(events, segmentEvent(v, s.Label, s, sub[s.Label]))
		}
		events = withMarkers(v, events, f1.EventHighlight, f1.EventStart, f1.EventFlyOut, f1.EventPassing)
		if err := cat.PutEvents(v, events); err != nil {
			return err
		}

		if i == 0 {
			aud.SaveParams(cat.Store(), audioModelPrefix)
		}
		events = nil
		for _, s := range eval.Segments(m[f1.EventExcited], excitedSegs) {
			events = append(events, segmentEvent(v, f1.EventExcited, s, m[f1.EventExcited]))
		}
		if err := cat.PutEvents(v, withMarkers(v, events, f1.EventExcited)); err != nil {
			return err
		}
	}
	return nil
}

// segmentEvent is the event of segment s, its confidence the series'
// mean over it.
func segmentEvent(video, typ string, s eval.Segment, series []float64) cobra.Event {
	return cobra.Event{Video: video, Type: typ,
		Interval:   cobra.Interval{Start: s.Start, End: s.End},
		Confidence: meanOver(series, s.Start, s.End)}
}

// withMarkers appends a zero-confidence availability marker for every
// type with no event.
func withMarkers(video string, events []cobra.Event, types ...string) []cobra.Event {
	for _, typ := range types {
		if !slices.ContainsFunc(events, func(e cobra.Event) bool { return e.Type == typ }) {
			events = append(events, cobra.Event{Video: video, Type: typ,
				Interval: cobra.Interval{Start: 0, End: 0.1}, Confidence: 0})
		}
	}
	return events
}

// meanOver is the mean of series over the clips of [start, end).
func meanOver(series []float64, start, end float64) float64 {
	lo, hi := int(start/f1.ClipDur), min(int(end/f1.ClipDur), len(series))
	if lo >= hi {
		return 0
	}
	s := 0.0
	for _, v := range series[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}

// liftSeries keeps how far each value rises above the series' mean, as
// the highlight extractor does with the sub-event marginals.
func liftSeries(s []float64) []float64 {
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(max(len(s), 1))
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = max(v-mean, 0)
	}
	return out
}

// profileOf maps a corpus video name to its race profile.
func profileOf(video string) synth.Profile {
	for _, p := range []synth.Profile{synth.GermanGP, synth.BelgianGP, synth.USAGP} {
		if p.Name+"-gp" == video {
			return p
		}
	}
	return synth.GermanGP
}

// split cuts a training prefix into n equal sequences, the last taking
// the remainder.
func split(obs [][]int, n int) [][][]int {
	size := len(obs) / n
	if size == 0 {
		return [][][]int{obs}
	}
	out := make([][][]int, 0, n)
	for i := 0; i < n; i++ {
		hi := (i + 1) * size
		if i == n-1 {
			hi = len(obs)
		}
		out = append(out, obs[i*size:hi])
	}
	return out
}

func clamp01(v float64) float64 { return max(0, min(1, v)) }

// shadowExtract makes f1.Extract's layer calls under spans: audio
// rendering and analysis, keyword spotting, then per clip frame
// rendering, motion estimation, visual detectors and caption
// recognition.
func shadowExtract(tr *tracer, trace, parent int64, race *synth.Race, seed int64) (*f1.Features, int, error) {
	n := int(race.Duration / f1.ClipDur)
	f := &f1.Features{Race: race, N: n}
	var samples []float64
	tr.do("synth.render_audio", trace, parent, func() { samples = race.RenderAudio() })
	var clips []audio.ClipFeatures
	var err error
	tr.do("audio.analyze", trace, parent, func() {
		var an *audio.Analyzer
		if an, err = audio.NewAnalyzer(audio.DefaultConfig()); err == nil {
			clips = an.Analyze(samples)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	alloc := func() []float64 { return make([]float64, n) }
	f.PauseRate, f.STEAvg, f.STEDyn, f.STEMax = alloc(), alloc(), alloc(), alloc()
	f.PitchAvg, f.PitchDyn, f.PitchMax, f.MFCCAvg, f.MFCCMax = alloc(), alloc(), alloc(), alloc(), alloc()
	f.Speech = make([]bool, n)
	for i := 0; i < n && i < len(clips); i++ {
		c := clips[i]
		f.Speech[i] = c.Speech
		if !c.Speech {
			f.PauseRate[i] = 1
			continue
		}
		f.PauseRate[i] = c.PauseRate
		f.STEAvg[i] = clamp01(c.STEAvg / 0.003)
		f.STEDyn[i] = clamp01(c.STEDyn * 2 / 0.003)
		f.STEMax[i] = clamp01(c.STEMax / 0.003)
		f.PitchAvg[i] = clamp01((c.PitchAvg - 170) / 140)
		f.PitchDyn[i] = clamp01(c.PitchDyn / 300)
		f.PitchMax[i] = clamp01((c.PitchMax - 170) / 140)
		f.MFCCAvg[i] = clamp01((-120 - c.MFCCAvg) / 80)
		f.MFCCMax[i] = clamp01((-120 - c.MFCCMax) / 80)
	}
	tr.do("keyword.spot", trace, parent, func() {
		var spotter *keyword.Spotter
		if spotter, err = keyword.NewSpotter(synth.ExcitedKeywords); err != nil {
			return
		}
		spotter.Threshold = 0.55
		rng := rand.New(rand.NewSource(seed ^ race.Seed))
		stream := keyword.SimulateStream(race.Utterances, keyword.TVNews, rng)
		f.Keywords = keyword.EvidenceSeries(spotter.Normalize(spotter.Spot(stream)), n, f1.ClipDur)
	})
	if err != nil {
		return nil, 0, err
	}
	f.PartOfRace = alloc()
	for i := range f.PartOfRace {
		f.PartOfRace[i] = float64(i) / float64(n)
	}

	f.ColorDiff, f.Semaphore, f.Dust, f.Sand, f.Motion, f.Passing = alloc(), alloc(), alloc(), alloc(), alloc(), alloc()
	shotDet := video.NewShotDetector(video.DefaultShotConfig())
	dveDet := video.NewDVEDetector()
	replayDet := video.NewReplayDetector()
	var semTracker video.SemaphoreTracker
	textDet := vtext.NewDetector(5)
	lex := append(append([]string(nil), synth.Drivers...), "PIT", "STOP", "LAP", "WINNER", "FINAL", "1")
	rec := vtext.NewRecognizer(lex, 0.7)
	recognize := func(frames []*video.Frame, startClip int) {
		band := vtext.Binarize(vtext.Interpolate4x(vtext.MinFilterBand(frames)), 170)
		for _, h := range rec.RecognizeBand(band) {
			f.Captions = append(f.Captions, f1.CaptionHit{Word: h.Word, Time: float64(startClip) * f1.ClipDur, Score: h.Score})
		}
	}
	var prev *video.Frame
	var bandFrames []*video.Frame
	bandStart := 0
	for i := 0; i < n; i++ {
		var frame *video.Frame
		tr.do("synth.render_frames", trace, parent, func() { frame = race.RenderFrame(float64(i) * f1.ClipDur) })
		var mf *video.MotionField
		tr.do("video.motion", trace, parent, func() {
			if prev != nil {
				f.ColorDiff[i] = video.MotionAmount(prev, frame)
				mf = video.EstimateMotion(prev, frame, 3)
				f.Motion[i] = clamp01(f.ColorDiff[i] * 8)
				f.Passing[i] = video.PassingProbability(video.MotionHistogram(mf, 3))
			}
		})
		tr.do("video.detect", trace, parent, func() {
			shotDet.Feed(frame)
			sem := video.DetectSemaphore(frame)
			semTracker.Feed(sem)
			if sem.Present {
				f.Semaphore[i] = clamp01(sem.Fill)
			}
			sd := video.DetectSandDust(frame)
			f.Sand[i] = clamp01(4 * sd.SandFraction)
			f.Dust[i] = clamp01(6 * sd.DustFraction)
			if mf != nil && dveDet.Feed(mf) {
				replayDet.FeedDVE(i)
			}
		})
		prev = frame
		tr.do("vtext.recognize", trace, parent, func() {
			sr := vtext.AnalyzeBand(frame)
			if sr.Present {
				if len(bandFrames) == 0 {
					bandStart = i
				}
				if len(bandFrames) < 8 {
					bandFrames = append(bandFrames, frame)
				}
			}
			if textDet.Feed(sr) && len(bandFrames) > 0 {
				recognize(bandFrames, bandStart)
				bandFrames = nil
			}
			if !sr.Present {
				bandFrames = nil
			}
		})
	}
	tr.do("vtext.recognize", trace, parent, func() {
		textDet.Flush()
		if len(bandFrames) >= 5 {
			recognize(bandFrames, bandStart)
		}
	})
	tr.do("video.detect", trace, parent, func() {
		f.Replay = video.ReplayProbability(replayDet.Segments, n)
		for _, bd := range shotDet.Boundaries {
			f.ShotBoundaries = append(f.ShotBoundaries, float64(bd)*f1.ClipDur)
		}
	})
	return f, n, nil
}
