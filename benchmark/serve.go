package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/mil"
	"cobra/internal/monet"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/synth"
)

// The serve workload is warm, read-only retrieval. Set-up extracts a
// short stretch of two races and tiles its features and events out to a
// full 90-minute broadcast, so feature columns have race-length row
// counts; then two closed-loop connections send a mix of cached COQL
// statements, COQL statements with fresh literals that can never hit,
// and MIL kernel requests.
var serveVideos = []string{"german-gp", "belgian-gp"}

// Request mix: shares of cached-set COQL and fresh-literal COQL; the
// rest is MIL.
const (
	serveCachedShare = 0.70
	serveFreshShare  = 0.15
)

type serveConfig struct {
	extractDur, fullDur float64
}

func serveSizes(opt options) serveConfig {
	if opt.tiny {
		return serveConfig{extractDur: 6, fullDur: 120}
	}
	return serveConfig{extractDur: 12, fullDur: 5400}
}

// serveLimit caps every answer. Without it, the popular statements'
// answer sizes, and so the cost of a cache hit, would follow the seed's
// event and run counts rather than the serving path.
const serveLimit = " LIMIT 20"

// quantiles holds the sorted values of every served feature column.
// Thresholds are drawn as quantiles, so a statement's selectivity is the
// same whatever the seed made of the race.
type quantiles map[string][]float64

// at returns the u-quantile of video v's feature f as a literal.
func (q quantiles) at(v, f string, u float64) string {
	col := q[v+"/"+f]
	return strconv.FormatFloat(col[min(int(u*float64(len(col))), len(col)-1)], 'f', 6, 64)
}

// serveStatements is the fixed COQL set, most popular first.
func serveStatements(q quantiles) []string {
	var out []string
	for _, v := range serveVideos {
		for _, w := range []string{
			"EVENT('excited')",
			"FEATURE('motion') > " + q.at(v, "motion", 0.9),
			"TEXT CONTAINS 'PIT'",
			"FEATURE('audioex') > " + q.at(v, "audioex", 0.8),
			"EVENT('passing')",
			"FEATURE('pitchavg') >= " + q.at(v, "pitchavg", 0.7),
			"EVENT('excited') WITHIN 5 OF FEATURE('audioex') > " + q.at(v, "audioex", 0.9),
			"FEATURE('motion') > " + q.at(v, "motion", 0.5) + " DURING EVENT('excited')",
			"TEXT CONTAINS '" + synth.Drivers[0] + "'",
			"EVENT('highlight')",
		} {
			out = append(out, "SELECT SEGMENTS FROM "+v+" WHERE "+w+serveLimit)
		}
	}
	return out
}

// serveMIL is the fixed MIL set: select-count, range aggregate, fused
// select→aggregate and a select→join→aggregate over feature BATs.
func serveMIL(q quantiles) []string {
	var out []string
	for _, v := range serveVideos {
		fb := func(n string) string { return cobra.FeatureBATName(v, n) }
		out = append(out,
			fmt.Sprintf(`MIL bat("%s").uselect(%s, 1.0).count;`, fb("motion"), q.at(v, "motion", 0.8)),
			fmt.Sprintf(`MIL bat("%s").select(%s, %s).max;`, fb("audioex"), q.at(v, "audioex", 0.5), q.at(v, "audioex", 0.95)),
			fmt.Sprintf(`MIL fusedaggr("%s", %s, 1.0, "%s", "max");`, fb("motion"), q.at(v, "motion", 0.7), fb("audioex")),
			fmt.Sprintf(`MIL bat("%s").uselect(%s, 1.0).mirror.join(bat("%s")).max;`, fb("motion"), q.at(v, "motion", 0.9), fb("pitchavg")),
		)
	}
	return out
}

// freshFeatures are the columns fresh-literal statements threshold.
var freshFeatures = []string{"motion", "audioex", "pitchavg", "colordiff"}

type serveSys struct {
	cat     *cobra.Catalog
	srv     *server.Server
	clients []*server.Client
	q       quantiles
	stmts   []string // fixed COQL set
	mils    []string // fixed MIL set
	// ref holds the reference answer of every fixed COQL and MIL line.
	ref map[string]string
}

func (s *serveSys) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Close()
}

// startServe extracts, tiles and indexes the serving catalog, computes
// the reference answers and starts the server.
func startServe(b *bench, sz serveConfig) (*serveSys, error) {
	ecfg := f1.DefaultExpConfig()
	ecfg.RaceDur, ecfg.TrainDur, ecfg.TrainSegments, ecfg.EMIterations = sz.extractDur, sz.extractDur*2/3, 2, 3
	ecfg.Seed = b.opt.seed
	corpus := f1.NewCorpus(ecfg)
	src := cobra.NewCatalog(monet.NewStore())
	srcPre := cobra.NewPreprocessor(src)
	if err := corpus.IngestVideos(src); err != nil {
		return nil, err
	}
	corpus.RegisterExtractors(srcPre)
	eng := query.NewEngine(srcPre)
	for _, v := range serveVideos {
		for _, w := range []string{"FEATURE('motion') > 2", "EVENT('highlight')", "EVENT('excited')", "EVENT('pitstop')"} {
			if _, err := eng.Run("SELECT SEGMENTS FROM " + v + " WHERE " + w); err != nil {
				return nil, fmt.Errorf("serve set-up: %w", err)
			}
		}
	}

	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	reps := int(sz.fullDur / sz.extractDur)
	clips := int(sz.fullDur / f1.ClipDur)
	for _, v := range serveVideos {
		if err := tileVideo(src, cat, v, sz.extractDur, reps, clips); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "serve: set-up tiled %g s of extracted features and events to %g s (%d clips per feature) for %d videos\n",
		sz.extractDur, sz.fullDur, clips, len(serveVideos))

	s := &serveSys{cat: cat, q: quantiles{}, ref: map[string]string{}}
	for _, v := range serveVideos {
		for _, f := range freshFeatures {
			feat, err := cat.Feature(v, f)
			if err != nil {
				return nil, err
			}
			col := append([]float64(nil), feat.Values...)
			sort.Float64s(col)
			s.q[v+"/"+f] = col
		}
	}
	s.stmts, s.mils = serveStatements(s.q), serveMIL(s.q)

	// Reference answers: a fresh engine and interpreter, no cache, one
	// kernel worker.
	pre := cobra.NewPreprocessor(cat)
	var refErr error
	atWidth1(func() {
		ref := query.NewEngine(pre)
		for _, stmt := range s.stmts {
			lines, err := runCOQL(ref, stmt)
			if err != nil {
				refErr = fmt.Errorf("serve reference %q: %w", stmt, err)
				return
			}
			s.ref[stmt] = joinLines(lines)
		}
		for _, line := range s.mils {
			v, err := mil.NewInterp(store).Exec(strings.TrimPrefix(line, "MIL "))
			if err != nil {
				refErr = fmt.Errorf("serve reference %q: %w", line, err)
				return
			}
			s.ref[line] = v.String()
		}
	})
	if refErr != nil {
		return nil, refErr
	}

	s.srv = server.New(pre, nil)
	s.srv.SetCache(qcache.New(qcache.DefaultMaxBytes))
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for range serveVideos {
		c, err := server.Dial(addr.String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// tileVideo copies video v from src to dst at full length: every
// feature series but the race's progress repeated to clips samples, every
// event shifted by each multiple of period. Zero-confidence availability markers are kept once.
func tileVideo(src, dst *cobra.Catalog, v string, period float64, reps, clips int) error {
	if err := dst.PutVideo(cobra.Video{Name: v, Duration: float64(clips) * f1.ClipDur, FPS: synth.FPS}); err != nil {
		return err
	}
	for _, name := range f1.FeatureNames {
		f, err := src.Feature(v, name)
		if err != nil {
			return err
		}
		vals := make([]float64, clips)
		for i := range vals {
			vals[i] = f.Values[i%len(f.Values)]
			if name == "partofrace" {
				// The race's progress runs once over the full length.
				vals[i] = float64(i) / float64(clips)
			}
		}
		if err := dst.PutFeature(cobra.Feature{Video: v, Name: name, SampleRate: f.SampleRate, Values: vals}); err != nil {
			return err
		}
	}
	var events []cobra.Event
	for _, typ := range []string{f1.EventHighlight, f1.EventStart, f1.EventFlyOut, f1.EventPassing,
		f1.EventExcited, f1.EventCaption, f1.EventPitStop, f1.EventWinner} {
		for _, e := range src.Events(v, typ) {
			if e.Confidence == 0 {
				events = append(events, e)
				continue
			}
			for k := 0; k < reps; k++ {
				c := e
				c.Interval.Start += float64(k) * period
				c.Interval.End += float64(k) * period
				events = append(events, c)
			}
		}
	}
	return dst.PutEvents(v, events)
}

// atWidth1 runs fn with a one-worker kernel pool.
func atWidth1(fn func()) {
	prev := monet.SetDefaultPoolWorkers(1)
	defer monet.SetDefaultPoolWorkers(prev)
	fn()
}

// runCOQL evaluates a statement and renders it as the wire does.
func runCOQL(eng *query.Engine, stmt string) ([]string, error) {
	res, err := eng.Run(stmt)
	if err != nil {
		return nil, err
	}
	lines := make([]string, len(res))
	for i, r := range res {
		lines[i] = query.FormatResult(r)
	}
	return lines, nil
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// mixer produces one connection's request sequence.
type mixer struct {
	rng   *rand.Rand
	z     zipf
	s     *serveSys
	conn  int
	fresh int
}

func newMixer(s *serveSys, seed int64, conn int) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed*1000 + int64(conn))), z: newZipf(len(s.stmts), 1.1), s: s, conn: conn}
}

// next returns the next request line and whether its literal is fresh.
// A fresh literal is a quantile between the median and the 98th
// percentile, with the connection and a sequence number in digits below
// the data's precision, so no two requests of a run share one.
func (m *mixer) next() (string, bool) {
	p := m.rng.Float64()
	switch {
	case p < serveCachedShare:
		return m.s.stmts[m.z.draw(m.rng)], false
	case p < serveCachedShare+serveFreshShare:
		m.fresh++
		v := serveVideos[m.rng.Intn(len(serveVideos))]
		f := freshFeatures[m.rng.Intn(len(freshFeatures))]
		lit := fmt.Sprintf("%s%06d%d", m.s.q.at(v, f, 0.5+0.48*m.rng.Float64()), m.fresh, m.conn)
		return fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %s%s", v, f, lit, serveLimit), true
	default:
		return m.s.mils[m.rng.Intn(len(m.s.mils))], false
	}
}

// loopStats is one closed-loop phase's outcome.
type loopStats struct {
	lat     []float64 // ms
	elapsed time.Duration
	fresh   map[string]string
}

// closedLoop runs one request loop per client for d and checks every
// answer with a reference: fixed lines at once, fresh ones afterwards.
// Each request runs under a span when tr is not nil.
func closedLoop(b *bench, tr *tracer, s *serveSys, seed int64, d time.Duration) loopStats {
	var mu sync.Mutex
	st := loopStats{fresh: map[string]string{}}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			m := newMixer(s, seed, i)
			var lat []float64
			fresh := map[string]string{}
			for time.Now().Before(deadline) {
				line, isFresh := m.next()
				b.op()
				sp := tr.begin("client.request", tr.newTrace(), 0)
				t0 := time.Now()
				out, err := c.Do(line)
				lat = append(lat, ms(time.Since(t0)))
				tr.end(sp)
				if err != nil {
					b.fail("serve %q: %v", line, err)
					continue
				}
				got := joinLines(out)
				if isFresh {
					fresh[line] = got
					continue
				}
				if got != s.ref[line] {
					b.fail("serve %q: wire answer differs from the reference", line)
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			for k, v := range fresh {
				st.fresh[k] = v
			}
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// checkFresh compares fresh-literal answers with a fresh engine at
// width 1 (the catalog is read-only, so set-up or now is the same).
func checkFresh(b *bench, s *serveSys, fresh map[string]string) {
	atWidth1(func() {
		ref := query.NewEngine(cobra.NewPreprocessor(s.cat))
		for _, stmt := range sortedKeys(fresh) {
			lines, err := runCOQL(ref, stmt)
			b.check(err == nil && joinLines(lines) == fresh[stmt], "serve %q: wire answer differs from the reference", stmt)
		}
	})
}

func runServe(b *bench) error {
	sz := serveSizes(b.opt)
	var s *serveSys
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		if err := b.timeSetup(func() (err error) { s, err = startServe(b, sz); return err }); err != nil {
			return err
		}
	}
	defer s.close()

	d := time.Duration(b.opt.seconds * float64(time.Second))
	before := counters()
	st := closedLoop(b, nil, s, b.opt.seed, d)
	after := counters()
	b.setE2E("latency_ms", "ms", median(st.lat))
	b.setLayer("query_p50_ms", "ms", median(st.lat))
	b.setLayer("query_p99_ms", "ms", quantile(st.lat, 0.99))
	b.setLayer("queries_per_s", "1/s", float64(len(st.lat))/st.elapsed.Seconds())
	checkFresh(b, s, st.fresh)
	// The heap is the program's: the benchmark's latency samples and
	// recorded answers go first.
	st = loopStats{}
	b.setE2E("heap_mb", "MiB", heapMB())
	if b.tr == nil {
		return nil
	}

	hits, misses := delta(before, after, "qcache.hits"), delta(before, after, "qcache.misses")
	pruned, scanned := delta(before, after, "monet.index.zonemap.morsels_pruned"), delta(before, after, "monet.index.zonemap.morsels_scanned")
	b.setLayer("qcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	b.setLayer("monet.zonemap.pruned_ratio", "ratio", ratio(pruned, pruned+scanned))
	b.setLayer("monet.crack.cracks", "count", delta(before, after, "monet.index.crack.cracks"))
	b.setLayer("wal.records", "count", delta(before, after, "wal.records"))
	b.setLayer("wal.fsyncs", "count", delta(before, after, "wal.fsyncs"))

	// Tracing overhead: the same request sequence untraced, then traced,
	// each from an empty result cache on the indexes phase 1 warmed.
	var phases [2]loopStats
	for i, tr := range []*tracer{nil, b.tr} {
		s.srv.Cache().Flush()
		phases[i] = closedLoop(b, tr, s, b.opt.seed+1, d/2)
		checkFresh(b, s, phases[i].fresh)
	}
	b.setLayer("trace.overhead_ms", "ms", median(phases[1].lat)-median(phases[0].lat))
	return serveProbes(b, s)
}

// serveProbes times single layers on the request mix, one call at a
// time: COQL parse and uncached execution, the catalog's feature select,
// MIL execution, a result-cache hit, and the server's in-process request
// time against the client's round trip for the same line.
func serveProbes(b *bench, s *serveSys) error {
	const reps = 15
	tr := b.tr
	eng := query.NewEngine(cobra.NewPreprocessor(s.cat))
	cache := s.srv.Cache()
	client := s.clients[0]
	m := newMixer(s, b.opt.seed+2, 0)
	stmts := append([]string(nil), s.stmts...)
	fixed := len(stmts)
	for i := 0; i < 20; i++ {
		for {
			line, fresh := m.next()
			if fresh {
				stmts = append(stmts, line)
				break
			}
		}
	}
	durs := map[string][]float64{}
	timed := func(name string, fn func() error) (float64, error) {
		sp := tr.begin(name, tr.newTrace(), 0)
		t0 := time.Now()
		err := fn()
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		tr.end(sp)
		durs[name] = append(durs[name], us)
		return us, err
	}
	var missRest []float64
	clamped := 0
	for i, stmt := range stmts {
		for r := 0; r < reps; r++ {
			var q *query.Query
			parseUs, err := timed("query.parse", func() (err error) { q, err = query.Parse(stmt); return err })
			if err != nil {
				return err
			}
			execUs, err := timed("query.exec", func() error { _, err := eng.Execute(q); return err })
			if err != nil {
				return err
			}
			if fc, ok := q.Where.(*query.FeatureCond); ok {
				if _, err := timed("cobra.feature_select", func() error {
					_, _, err := s.cat.FeatureRunsCtx(context.Background(), q.Video, fc.Name, fc.Val, math.Inf(1))
					return err
				}); err != nil {
					return err
				}
			}
			if r == 0 {
				// Warm the line's index pieces and cache entry.
				s.srv.Serve(stmt, io.Discard)
			} else if i >= fixed {
				// A fresh line's in-process miss on a warm index: the time
				// parse and execution leave uncovered.
				cache.Flush()
				missUs, _ := timed("server.serve_miss", func() error { s.srv.Serve(stmt, io.Discard); return nil })
				rest := missUs - parseUs - execUs
				if rest < 0 {
					// Parse and execution were timed in other calls;
					// their noise can exceed the remainder.
					clamped++
					rest = 0
				}
				missRest = append(missRest, rest)
			}
			// The same cached line in process and over the wire.
			serveUs, _ := timed("server.serve", func() error { s.srv.Serve(stmt, io.Discard); return nil })
			rttUs, err := timed("client.rtt", func() error { _, err := client.Do(stmt); return err })
			if err != nil {
				return err
			}
			durs["wire"] = append(durs["wire"], rttUs-serveUs)
			key := q.Canonical()
			fp := qcache.Fingerprint(s.cat.Store(), query.DepNamesOf(q))
			if _, err := timed("qcache.hit", func() error {
				_, hit, err := cache.Do(key, fp, func() ([]string, error) { return nil, fmt.Errorf("expected a cached answer") })
				if err == nil && !hit {
					err = fmt.Errorf("expected a cache hit")
				}
				return err
			}); err != nil {
				return fmt.Errorf("serve probe %q: %w", stmt, err)
			}
		}
	}
	for _, line := range s.mils {
		for r := 0; r < reps; r++ {
			in := mil.NewInterp(s.cat.Store())
			if _, err := timed("mil.exec", func() error { _, err := in.Exec(strings.TrimPrefix(line, "MIL ")); return err }); err != nil {
				return err
			}
		}
	}
	b.setLayer("query.parse_us", "us", median(durs["query.parse"]))
	b.setLayer("query.exec_us", "us", median(durs["query.exec"]))
	b.setLayer("cobra.feature_select_us", "us", median(durs["cobra.feature_select"]))
	b.setLayer("mil.exec_us", "us", median(durs["mil.exec"]))
	b.setLayer("qcache.hit_us", "us", median(durs["qcache.hit"]))
	b.setLayer("server.wire_us", "us", median(durs["wire"]))
	// A miss spends parse and execution time in the query layer; the
	// rest of its in-process time is middleware, cache bookkeeping and
	// rendering, which no probe span covers.
	b.setLayer("trace.unaccounted_ms", "ms", median(missRest)/1000)
	b.setLayer("trace.unaccounted_clamped", "count", float64(clamped))
	return nil
}
