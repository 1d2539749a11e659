package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/stream"
	"cobra/internal/synth"
	"cobra/internal/wal"
)

// The live workload is writes beside reads on one catalog. An open-loop
// feed airs a race into a live video on a fixed wall-clock schedule,
// faster than real time, under -wal-sync always; after every step it
// advances hundreds of standing queries — most identical, as when many
// monitors watch one stream, a few distinct. One connection carries the
// subscriptions; the other runs a closed-loop COQL reader against the
// live video.
const liveVideo = "live-gp"

// recoverReps is how many copies of the data directory are recovered;
// recover_s is the median.
const recoverReps = 21

type liveConfig struct {
	stepDt    float64       // broadcast seconds aired per step
	interval  time.Duration // wall-clock period of the feed
	identical int           // standing queries sharing one statement
}

func liveSizes(opt options) liveConfig {
	if opt.tiny {
		return liveConfig{stepDt: 0.5, interval: 50 * time.Millisecond, identical: 20}
	}
	return liveConfig{stepDt: 0.2, interval: 50 * time.Millisecond, identical: 290}
}

// liveShared is the statement most subscribers share: a ticker over the
// last 10 s of the broadcast, whose answer changes at every step, so every
// step pushes a frame to each of its subscribers.
const liveShared = "SELECT SEGMENTS FROM " + liveVideo + " WHERE FEATURE('partofrace') > 0 LAST 10 S"

// liveDistinct are the other standing queries, one subscriber each.
var liveDistinct = []string{
	"EVENT('start')", "EVENT('flyout') LAST 60 S", "EVENT('pitstop')",
	"FEATURE('motion') > 0.5 LAST 20 S", "FEATURE('audioex') > 0.6 LAST 30 S",
	"FEATURE('pitchavg') >= 0.7 LAST 10 S", "TEXT CONTAINS 'PIT' LAST 60 S",
	"FEATURE('semaphore') > 0.3", "EVENT('passing') WITHIN 5 OF FEATURE('motion') > 0.6",
	"FEATURE('dust') > 0.2 LAST 15 S",
}

// liveReads is the reader connection's statement set: threshold and
// window monitors over the live columns, enough of them that some reads
// follow an ingest step's cache invalidation.
func liveReads() []string {
	var out []string
	for _, f := range []string{"motion", "audioex", "pitchavg", "passing"} {
		for t := 1; t <= 9; t++ {
			for _, w := range []int{10, 20, 30, 60} {
				out = append(out, fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > 0.%d LAST %d S", liveVideo, f, t, w))
			}
		}
	}
	for _, e := range []string{"EVENT('passing')", "EVENT('start') LAST 60 S", "TEXT CONTAINS 'PIT'"} {
		out = append(out, "SELECT SEGMENTS FROM "+liveVideo+" WHERE "+e)
	}
	return out
}

type liveSys struct {
	dir    string
	mgr    *wal.Manager
	cat    *cobra.Catalog
	srv    *server.Server
	subs   *stream.Manager
	ing    *f1.LiveIngestor
	sub    *server.Client
	reader *server.Client
}

func (l *liveSys) close() {
	for _, c := range []*server.Client{l.sub, l.reader} {
		if c != nil {
			c.Close()
		}
	}
	if l.srv != nil {
		l.srv.Close()
	}
	if err := l.mgr.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "live: closing WAL:", err)
	}
	os.RemoveAll(l.dir)
}

// startLive opens an empty WAL-backed catalog, extracts the race into a
// live ingestor, starts the server and registers the standing queries.
func startLive(b *bench, cfg liveConfig, raceDur float64, dir string) (*liveSys, error) {
	store := monet.NewStore()
	mgr, err := wal.Open(dir, store, wal.Options{Sync: walSync})
	if err != nil {
		return nil, err
	}
	l := &liveSys{dir: dir, mgr: mgr, cat: cobra.NewCatalog(store)}
	race := synth.GenerateRace(synth.GermanGP, raceDur, b.opt.seed)
	if l.ing, err = f1.NewLiveIngestor(l.cat, liveVideo, race, b.opt.seed); err != nil {
		l.close()
		return nil, err
	}
	pre := cobra.NewPreprocessor(l.cat)
	l.srv = server.New(pre, nil)
	l.srv.SetCache(qcache.New(qcache.DefaultMaxBytes))
	l.subs = stream.NewManager(query.NewEngine(pre))
	l.srv.SetStream(l.subs)
	addr, err := l.srv.Listen("127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	if l.sub, err = server.Dial(addr.String()); err != nil {
		l.close()
		return nil, err
	}
	if l.reader, err = server.Dial(addr.String()); err != nil {
		l.close()
		return nil, err
	}
	stmts := make([]string, 0, cfg.identical+len(liveDistinct))
	for i := 0; i < cfg.identical; i++ {
		stmts = append(stmts, liveShared)
	}
	for _, w := range liveDistinct {
		stmts = append(stmts, "SELECT SEGMENTS FROM "+liveVideo+" WHERE "+w)
	}
	for _, s := range stmts {
		if _, err := l.sub.Subscribe(s); err != nil {
			l.close()
			return nil, fmt.Errorf("live: subscribe %q: %w", s, err)
		}
	}
	return l, nil
}

// liveFeed is the feed's record of due times by watermark, read by the
// subscriber to time notifications.
type liveFeed struct {
	mu    sync.Mutex
	dueAt map[float64]time.Time
}

func (f *liveFeed) due(wm float64) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.dueAt[wm]
	return t, ok
}

// phaseStats is what one measured phase of the live workload saw.
type phaseStats struct {
	steps    int
	ingest   []float64 // ms from due to acknowledged
	late     []float64 // ms the generator started a step after its due time
	reads    []float64 // ms per reader request
	elapsed  time.Duration
	notifyMu sync.Mutex // the subscriber goroutine appends to notify
	notify   []float64  // ms from due to EVENT frame read
}

// livePhase runs the feed and the reader for d. The subscriber goroutine
// (started by the caller) files notification latencies into the phase
// whose feed produced the watermark.
func livePhase(b *bench, tr *tracer, l *liveSys, cfg liveConfig, feed *liveFeed, ph *phaseStats, d time.Duration, seed int64) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	// The reader starts once the first step is acknowledged: before it,
	// the live video has no feature columns to read.
	aired := make(chan struct{})
	var airedOnce sync.Once
	go func() {
		defer wg.Done()
		defer airedOnce.Do(func() { close(aired) })
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * cfg.interval)
			if !due.Before(deadline) || l.ing.Done() {
				return
			}
			time.Sleep(time.Until(due))
			t0 := time.Now()
			ph.late = append(ph.late, ms(t0.Sub(due)))
			trace := tr.newTrace()
			root := tr.begin("live.step", trace, 0)
			b.op()
			var wm float64
			var err error
			tr.do("f1.step", trace, root, func() { wm, err = l.ing.Step(cfg.stepDt) })
			acked := time.Now()
			if err != nil {
				b.fail("live step %d: %v", k, err)
				tr.end(root)
				continue
			}
			ph.steps++
			ph.ingest = append(ph.ingest, ms(acked.Sub(due)))
			feed.mu.Lock()
			feed.dueAt[wm] = due
			feed.mu.Unlock()
			airedOnce.Do(func() { close(aired) })
			tr.do("stream.advance", trace, root, func() { l.subs.Advance(context.Background()) })
			tr.end(root)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		reads := liveReads()
		<-aired
		for time.Now().Before(deadline) {
			stmt := reads[rng.Intn(len(reads))]
			b.op()
			t0 := time.Now()
			_, err := l.reader.Do(stmt)
			ph.reads = append(ph.reads, ms(time.Since(t0)))
			if err != nil {
				b.fail("live read %q: %v", stmt, err)
			}
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
}

// subscriberLoop reads EVENT frames until the connection closes and
// files each frame's latency into the phase current at its due time.
func subscriberLoop(l *liveSys, feed *liveFeed, phaseOf func(time.Time) *phaseStats, frames *int) {
	for {
		ev, err := l.sub.NextEvent(0)
		if err != nil {
			return
		}
		now := time.Now()
		*frames++
		due, ok := feed.due(ev.Watermark)
		if !ok {
			continue
		}
		if ph := phaseOf(due); ph != nil {
			ph.notifyMu.Lock()
			ph.notify = append(ph.notify, ms(now.Sub(due)))
			ph.notifyMu.Unlock()
		}
	}
}

func runLive(b *bench) error {
	cfg := liveSizes(b.opt)
	phases := 1
	if b.tr != nil {
		phases = 2
	}
	// The race is long enough for every step of every phase.
	steps := int(b.opt.seconds*float64(phases)/cfg.interval.Seconds()) + 10
	raceDur := float64(steps)*cfg.stepDt + 5
	var l *liveSys
	for i := 0; i < setupReps; i++ {
		if l != nil {
			l.close()
		}
		dir := filepath.Join(b.opt.workdir, fmt.Sprintf("data-%d", i))
		if err := b.timeSetup(func() (err error) { l, err = startLive(b, cfg, raceDur, dir); return err }); err != nil {
			return err
		}
	}
	defer l.close()

	feed := &liveFeed{dueAt: map[float64]time.Time{}}
	d := time.Duration(b.opt.seconds * float64(time.Second))
	untraced, traced := &phaseStats{}, &phaseStats{}
	var phaseMu sync.Mutex
	var tracedFrom time.Time
	phaseOf := func(due time.Time) *phaseStats {
		phaseMu.Lock()
		defer phaseMu.Unlock()
		if !tracedFrom.IsZero() && !due.Before(tracedFrom) {
			return traced
		}
		return untraced
	}
	frames := 0
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		subscriberLoop(l, feed, phaseOf, &frames)
	}()

	tr := b.tr
	before := counters()
	rows0 := userBytes(l.cat)
	livePhase(b, nil, l, cfg, feed, untraced, d, b.opt.seed)
	after := counters()
	rows1 := userBytes(l.cat)
	if tr != nil {
		phaseMu.Lock()
		tracedFrom = time.Now()
		phaseMu.Unlock()
		livePhase(b, tr, l, cfg, feed, traced, d, b.opt.seed+1)
	}
	// Let the last step's frames arrive, then stop the subscriber.
	time.Sleep(200 * time.Millisecond)
	l.sub.Close()
	<-subDone
	l.sub = nil

	// Ingest, notification and recovery follow how much fsync bandwidth
	// and CPU the machine spares from run to run, too much for a bound,
	// so the traced run reports them; the reader's median and the heap
	// are the bounded end-to-end numbers.
	n := float64(untraced.steps)
	b.setE2E("latency_ms", "ms", median(untraced.reads))
	b.setLayer("ingest_p50_ms", "ms", median(untraced.ingest))
	b.setLayer("ingest_p99_ms", "ms", quantile(untraced.ingest, 0.99))
	b.setLayer("notify_p50_ms", "ms", median(untraced.notify))
	b.setLayer("notify_p99_ms", "ms", quantile(untraced.notify, 0.99))
	b.setLayer("query_p50_ms", "ms", median(untraced.reads))
	b.setLayer("query_p99_ms", "ms", quantile(untraced.reads, 0.99))
	b.setLayer("queries_per_s", "1/s", float64(len(untraced.reads))/untraced.elapsed.Seconds())
	b.setLayer("live.steps", "count", n)
	b.setLayer("live.generator_late_p99_ms", "ms", quantile(untraced.late, 0.99))
	if tr != nil {
		b.setLayer("trace.overhead_ms", "ms", median(traced.ingest)-median(untraced.ingest))
	}
	b.check(untraced.steps > 0 && frames > 0, "live: %d steps acknowledged, %d frames read", untraced.steps, frames)
	// The heap is the program's: the benchmark's latency samples go
	// first, and the server has dropped the closed subscriber's standing
	// queries.
	untraced, traced = nil, nil
	for t0 := time.Now(); len(l.subs.List()) > 0 && time.Since(t0) < 5*time.Second; {
		time.Sleep(10 * time.Millisecond)
	}
	b.setE2E("heap_mb", "MiB", heapMB())

	// Recovery: copy the data directory between acknowledged steps (the
	// feed has stopped) and recover the copy several times.
	acked, err := storeImage(l.cat.Store())
	if err != nil {
		return err
	}
	copyDir := filepath.Join(b.opt.workdir, "copy")
	if err := copyTree(l.dir, copyDir); err != nil {
		return err
	}
	var recTimes []float64
	var replayed int
	for i := 0; i < recoverReps; i++ {
		dir := filepath.Join(b.opt.workdir, fmt.Sprintf("recover-%d", i))
		if err := copyTree(copyDir, dir); err != nil {
			return err
		}
		secs, n, err := recoverCopy(b, dir, acked)
		if err != nil {
			return err
		}
		recTimes = append(recTimes, secs)
		replayed = n
	}
	if b.tr == nil {
		return nil
	}

	b.setLayer("recover_s", "s", median(recTimes))
	b.setLayer("wal.fsyncs_per_step", "count", ratio(delta(before, after, "wal.fsyncs"), n))
	b.setLayer("wal.records_per_step", "count", ratio(delta(before, after, "wal.records"), n))
	b.setLayer("wal.bytes_per_user_byte", "ratio", ratio(delta(before, after, "wal.bytes"), rows1-rows0))
	evals, skipped := delta(before, after, "stream.evals"), delta(before, after, "stream.evals_skipped")
	b.setLayer("stream.evals_per_step", "count", ratio(evals, n))
	b.setLayer("stream.evals_skipped_ratio", "ratio", ratio(skipped, evals+skipped))
	b.setLayer("stream.dropped", "count", delta(before, after, "stream.dropped"))
	b.setLayer("qcache.invalidations_per_step", "count", ratio(delta(before, after, "qcache.invalidations"), n))
	b.setLayer("wal.replay_records", "count", float64(replayed))

	lt := tr.selfTimes()
	b.setLayer("f1.step_ms", "ms", ms(lt.total["f1.step"])/float64(max(lt.count["f1.step"], 1)))
	b.setLayer("stream.advance_ms", "ms", ms(lt.total["stream.advance"])/float64(max(lt.count["stream.advance"], 1)))
	b.setLayer("trace.unaccounted_ms", "ms", ms(lt.self["live.step"])/float64(max(lt.count["live.step"], 1)))

	t0 := time.Now()
	if err := l.mgr.Checkpoint(); err != nil {
		return err
	}
	b.setLayer("wal.checkpoint_s", "s", time.Since(t0).Seconds())
	return nil
}

// userBytes is the numeric payload the live video holds: 8 bytes per
// feature sample and 24 (start, end, confidence) per event.
func userBytes(cat *cobra.Catalog) float64 {
	store := cat.Store()
	total := 0
	for _, name := range cat.FeatureNames(liveVideo) {
		rows, _ := store.Watermark(cobra.FeatureBATName(liveVideo, name))
		total += 8 * rows
	}
	rows, _ := store.Watermark(cobra.EventBATName(liveVideo, "type"))
	return float64(total + 24*rows)
}

// storeImage serializes every BAT of a store, by name.
func storeImage(store *monet.Store) (map[string][]byte, error) {
	img := map[string][]byte{}
	for _, name := range store.Names() {
		bat, err := store.Get(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := bat.WriteTo(&buf); err != nil {
			return nil, err
		}
		img[name] = buf.Bytes()
	}
	return img, nil
}

// recoverCopy opens a copied data directory, timing wal.Open, and checks
// that the recovered store equals the acknowledged image with every
// live feature column the same length. A mismatch is a failed check.
func recoverCopy(b *bench, dir string, acked map[string][]byte) (float64, int, error) {
	defer os.RemoveAll(dir)
	store := monet.NewStore()
	t0 := time.Now()
	mgr, err := wal.Open(dir, store, wal.Options{Sync: wal.SyncNone})
	secs := time.Since(t0).Seconds()
	if err != nil {
		b.check(false, "live recovery: %v", err)
		return secs, 0, nil
	}
	defer mgr.Close()
	got, err := storeImage(store)
	if err != nil {
		return 0, 0, err
	}
	var diff []string
	for _, name := range sortedKeys(acked) {
		if !bytes.Equal(got[name], acked[name]) {
			diff = append(diff, name)
		}
	}
	for name := range got {
		if _, ok := acked[name]; !ok {
			diff = append(diff, name)
		}
	}
	b.check(len(diff) == 0, "live recovery: %d BATs differ from the acknowledged prefix (first %v)", len(diff), firstFew(diff))
	cat := cobra.NewCatalog(store)
	lens := map[int]bool{}
	for _, name := range cat.FeatureNames(liveVideo) {
		rows, _ := store.Watermark(cobra.FeatureBATName(liveVideo, name))
		lens[rows] = true
	}
	b.check(len(lens) == 1, "live recovery: feature columns of %d different lengths", len(lens))
	return secs, mgr.Recovery.Replayed, nil
}

// firstFew returns up to three of xs, sorted.
func firstFew(xs []string) []string {
	sort.Strings(xs)
	return xs[:min(len(xs), 3)]
}

// copyTree copies a directory of regular files and makes the copy
// durable, so recovering it reads settled files, as after a restart, and
// no fsync inside wal.Open waits for the copy's own writeback.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			if err := os.MkdirAll(target, 0o755); err != nil {
				return err
			}
			return syncPath(filepath.Dir(target))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return syncPath(filepath.Dir(target))
	})
}

// syncPath fsyncs a file or directory.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
