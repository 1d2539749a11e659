// Command cobra-bench-e2e is the Cobra VDBMS benchmark: the paper's
// broadcast-to-highlights pipeline, warm retrieval over TCP, and durable
// live ingest beside readers and standing queries. It drives the real
// packages from outside — end-to-end numbers come from TCP clients with
// tracing off, per-layer numbers from a separate traced run that wraps
// benchmark-side spans around calls into each layer's public functions
// and reads the obs counters as before/after deltas.
//
// Usage, from the root of a checkout:
//
//	bash benchmark/run.sh --workload pipeline|serve|live --seed N \
//	    --seconds S --trace 0|1 [--width W]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records
// the environment the numbers were taken in. See benchmark/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/monet"
	"cobra/internal/obs"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	width    int
	workdir  string
	// tiny shrinks every input so a run takes a second or two; the
	// self-test uses it.
	tiny bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench collects one run's operation counts, failures and metrics.
type bench struct {
	opt options
	// tr records spans in traced runs; nil (every call a no-op) when
	// end-to-end numbers are measured.
	tr *tracer

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	e2e      map[string]metric
	layer    map[string]metric
	failures []string
	// setupTimes holds every set-up's duration in seconds.
	setupTimes []float64
}

func newBench(opt options) *bench {
	b := &bench{opt: opt, e2e: map[string]metric{}, layer: map[string]metric{}}
	if opt.trace {
		b.tr = newTracer()
	}
	return b
}

// op counts one attempted operation: a request, an ingest step or a
// check.
func (b *bench) op() { b.attempted.Add(1) }

// fail counts a failed operation and keeps its description.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// check counts one correctness check and records it as failed when ok
// is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.op()
	if !ok {
		b.fail(format, args...)
	}
}

// setE2E records an end-to-end metric.
func (b *bench) setE2E(name, unit string, v float64) {
	b.mu.Lock()
	b.e2e[name] = metric{v, unit}
	b.mu.Unlock()
}

// setLayer records a per-layer metric.
func (b *bench) setLayer(name, unit string, v float64) {
	b.mu.Lock()
	b.layer[name] = metric{v, unit}
	b.mu.Unlock()
}

// result assembles the final line: end-to-end metrics untraced,
// per-layer metrics traced. failed_ratio joins the per-layer set. A
// traced run reports every per-layer metric: one of a layer this
// workload does not exercise reads 0.
func (b *bench) result() result {
	att, failed := b.attempted.Load(), b.failed.Load()
	if att < 1 {
		att = 1
	}
	b.setE2E("setup_s", "s", median(b.setupTimes))
	ms := b.e2e
	if b.opt.trace {
		b.setLayer("failed_ratio", "ratio", float64(failed)/float64(att))
		own := map[string]bool{}
		for _, name := range workloadLayers[b.opt.workload] {
			own[name] = true
		}
		for name, unit := range layerUnits {
			if _, ok := b.layer[name]; !ok && !own[name] {
				b.layer[name] = metric{0, unit}
			}
		}
		ms = b.layer
	}
	return result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: ms}
}

// timeSetup runs one set-up and records how long it took; setup_s is
// the median of a run's set-ups.
func (b *bench) timeSetup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	b.mu.Lock()
	b.setupTimes = append(b.setupTimes, time.Since(t0).Seconds())
	b.mu.Unlock()
	return err
}

// heapMB forces a collection and returns the bytes of live heap
// objects, in MiB. HeapAlloc right after a collection counts only what
// is reachable; HeapInuse would add the free slots of partly used spans,
// which follow allocation order rather than what the program keeps.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters snapshots the obs counters.
func counters() map[string]int64 { return obs.Default.Snapshot().Counters }

// delta returns after[name] - before[name].
func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd names the end-to-end metrics every workload reports.
// latency_ms is the median time a client waits for the workload's unit
// of work: a cold round of pipeline queries, or one serve or live
// reader request.
var endToEnd = []string{"setup_s", "latency_ms", "heap_mb"}

// layerUnits holds every per-layer metric BENCHMARK.json declares, with
// its unit.
var layerUnits = map[string]string{
	"synth.render_audio_s": "s", "synth.render_frames_s": "s", "audio.analyze_s": "s",
	"keyword.spot_s": "s", "video.motion_s": "s", "video.detect_s": "s",
	"vtext.recognize_s": "s", "dbn.learn_s": "s", "dbn.filter_s": "s",
	"cobra.materialize_s": "s", "extract.frames": "count", "wal.records": "count",
	"wal.fsyncs": "count", "pipeline_s": "s", "highlight_f1": "ratio", "excited_f1": "ratio",
	"query.parse_us": "us", "query.exec_us": "us", "cobra.feature_select_us": "us",
	"mil.exec_us": "us", "qcache.hit_ratio": "ratio", "qcache.hit_us": "us",
	"server.wire_us": "us", "monet.zonemap.pruned_ratio": "ratio", "monet.crack.cracks": "count",
	"query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
	"recover_s": "s", "ingest_p50_ms": "ms", "ingest_p99_ms": "ms",
	"notify_p50_ms": "ms", "notify_p99_ms": "ms", "live.steps": "count",
	"live.generator_late_p99_ms": "ms", "f1.step_ms": "ms", "wal.fsyncs_per_step": "count",
	"wal.records_per_step": "count", "wal.bytes_per_user_byte": "ratio", "stream.advance_ms": "ms",
	"stream.evals_per_step": "count", "stream.evals_skipped_ratio": "ratio", "stream.dropped": "count",
	"qcache.invalidations_per_step": "count", "wal.replay_records": "count", "wal.checkpoint_s": "s",
	"trace.unaccounted_ms": "ms", "trace.unaccounted_clamped": "count", "trace.overhead_ms": "ms",
	"failed_ratio": "ratio",
}

// workloadLayers lists the per-layer metrics each workload measures.
var workloadLayers = map[string][]string{
	"pipeline": {"synth.render_audio_s", "synth.render_frames_s", "audio.analyze_s", "keyword.spot_s",
		"video.motion_s", "video.detect_s", "vtext.recognize_s", "dbn.learn_s", "dbn.filter_s",
		"cobra.materialize_s", "extract.frames", "wal.records", "wal.fsyncs",
		"pipeline_s", "highlight_f1", "excited_f1",
		"trace.unaccounted_ms", "trace.overhead_ms", "failed_ratio"},
	"serve": {"query.parse_us", "query.exec_us", "cobra.feature_select_us", "mil.exec_us",
		"qcache.hit_ratio", "qcache.hit_us", "server.wire_us", "monet.zonemap.pruned_ratio",
		"monet.crack.cracks", "wal.records", "wal.fsyncs", "query_p50_ms", "query_p99_ms", "queries_per_s",
		"trace.unaccounted_ms", "trace.unaccounted_clamped", "trace.overhead_ms", "failed_ratio"},
	"live": {"recover_s", "ingest_p50_ms", "ingest_p99_ms", "notify_p50_ms", "notify_p99_ms",
		"query_p50_ms", "query_p99_ms", "queries_per_s", "live.steps", "live.generator_late_p99_ms",
		"f1.step_ms", "wal.fsyncs_per_step", "wal.records_per_step", "wal.bytes_per_user_byte",
		"stream.advance_ms", "stream.evals_per_step", "stream.evals_skipped_ratio", "stream.dropped",
		"qcache.invalidations_per_step", "wal.replay_records", "wal.checkpoint_s",
		"trace.unaccounted_ms", "trace.overhead_ms", "failed_ratio"},
}

var workloads = map[string]func(*bench) error{
	"pipeline": runPipeline,
	"serve":    runServe,
	"live":     runLive,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: pipeline, serve or live")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.IntVar(&opt.width, "width", 0, "monet pool width (0: GOMAXPROCS; at most GOMAXPROCS)")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build/work", "scratch directory for data directories and traces")
	flag.Parse()
	opt.trace = trace == 1
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobra-bench-e2e:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobra-bench-e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result. It prints the
// environment record to out first.
func run(opt options, out io.Writer) (result, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want pipeline, serve or live)", opt.workload)
	}
	if opt.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	procs := runtime.GOMAXPROCS(0)
	if opt.width == 0 {
		opt.width = procs
	}
	if opt.width < 1 || opt.width > procs {
		return result{}, fmt.Errorf("--width %d outside 1..GOMAXPROCS (%d): a width is only reported where that many cores run", opt.width, procs)
	}
	monet.SetDefaultPoolWorkers(opt.width)
	dir, err := filepath.Abs(filepath.Join(opt.workdir, fmt.Sprintf("%s-%d-%d", opt.workload, opt.seed, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	opt.workdir = dir

	env, err := json.Marshal(map[string]any{"env": map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds,
		"trace": opt.trace, "nproc": runtime.NumCPU(), "gomaxprocs": procs,
		"pool_width": monet.DefaultPool().Workers(), "wal_sync": walSync.String(),
		"go": runtime.Version(),
	}})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(env))

	b := newBench(opt)
	if err := fn(b); err != nil {
		return result{}, err
	}
	if b.tr != nil {
		if err := b.tr.write(filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))); err != nil {
			return result{}, err
		}
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return b.result(), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// joinLines renders an answer body for byte comparison.
func joinLines(lines []string) string { return strings.Join(lines, "\n") }
