package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cobra/internal/benchfmt"
	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/hmm"
	"cobra/internal/mil"
	"cobra/internal/monet"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/stream"
)

// microBench is one harness entry: the operation plus the kernel pool
// width it is pinned to (0 = leave the default).
type microBench struct {
	name  string
	width int
	fn    func(b *testing.B)
}

// runMicro benchmarks one representative hot operation per level of
// the stack plus serial-vs-parallel pairs of the kernel's
// morsel-parallel operators over 1M-row BATs, and a width sweep of the
// parallel operators at pool widths 1, 4 and 8 so a single combined
// file carries comparable numbers across core counts. With -benchout
// set the results are written as one combined benchfmt.File (the
// format benchdiff and the CI bench-gate consume).
func runMicro(*f1.Lab) error {
	benches := []microBench{
		{"BATJoin", 0, benchBATJoin},
		{"BATUselect", 0, benchBATUselect},
		{"MILExec", 0, benchMILExec},
		{"HMMEvalParallel", 0, benchHMMEvalParallel},
		{"COQLQuery", 0, benchCOQLQuery},
		{"SerialSelect1M", 1, benchSelect1M},
		{"ParallelSelect1M", parallelWidth(), benchSelect1M},
		{"SerialGroupAgg1M", 1, benchGroupAgg1M},
		{"ParallelGroupAgg1M", parallelWidth(), benchGroupAgg1M},
		{"SerialJoin1M", 1, benchJoin1M},
		{"ParallelJoin1M", parallelWidth(), benchJoin1M},
		{"SelectAgg1M", 1, benchUnfusedSelectAgg1M},
		{"ScanSelect1M", parallelWidth(), benchScanSelect1M},
		{"ZoneMapSelect1M", parallelWidth(), benchZoneMapSelect1M},
		{"CrackSelect1M", parallelWidth(), benchCrackSelect1M},
		{"DictEq1M", parallelWidth(), benchDictEq1M},
		{"StreamFanout/s1", 0, benchStreamFanout(1)},
		{"StreamFanout/s100", 0, benchStreamFanout(100)},
		{"StreamFanout/s1000", 0, benchStreamFanout(1000)},
		{"UncachedQuery1M", 0, benchUncachedQuery1M},
		{"CachedQuery1M", 0, benchCachedQuery1M},
		{"CacheMissEvict", 0, benchCacheMissEvict},
	}
	// The width sweep: the same parallel operator bodies pinned to 1, 4
	// and 8 workers. The per-result width field keeps the numbers
	// honest on machines whose GOMAXPROCS differs from the pool width.
	sweep := []microBench{
		{"Select1M", 0, benchSelect1M},
		{"GroupAgg1M", 0, benchGroupAgg1M},
		{"Join1M", 0, benchJoin1M},
		{"FusedSelectAgg1M", 0, benchFusedSelectAgg1M},
	}
	for _, w := range []int{1, 4, 8} {
		for _, op := range sweep {
			benches = append(benches, microBench{
				name:  fmt.Sprintf("%s/w%d", op.name, w),
				width: w,
				fn:    op.fn,
			})
		}
	}
	results := make([]benchfmt.Result, 0, len(benches))
	for _, bench := range benches {
		fn := bench.fn
		if bench.width > 0 {
			fn = widthBench(bench.width, fn)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		res := benchfmt.Result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Width:       bench.width,
		}
		fmt.Printf("  %-20s %12.0f ns/op %8d allocs/op %10d B/op (%d iterations, width %d)\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.Iterations, res.Width)
		results = append(results, res)
	}
	printSpeedups(results)
	printCacheSpeedup(results)
	printStreamRates(results)
	if benchOut == "" {
		return nil
	}
	f := &benchfmt.File{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    results,
	}
	if err := benchfmt.Write(benchOut, f); err != nil {
		return err
	}
	fmt.Printf("  combined results written to %s\n", benchOut)
	return nil
}

// printSpeedups summarizes each Serial*/Parallel* pair as a speedup
// factor — the quickstart's serial-vs-parallel readout.
func printSpeedups(results []benchfmt.Result) {
	find := func(name string) (benchfmt.Result, bool) {
		for _, r := range results {
			if r.Name == name {
				return r, true
			}
		}
		return benchfmt.Result{}, false
	}
	for _, r := range results {
		op, ok := strings.CutPrefix(r.Name, "Serial")
		if !ok {
			continue
		}
		par, ok := find("Parallel" + op)
		if !ok || par.NsPerOp <= 0 {
			continue
		}
		fmt.Printf("  %-20s %.2fx parallel speedup on %d CPUs (pool width %d)\n",
			op, r.NsPerOp/par.NsPerOp, runtime.NumCPU(), parallelWidth())
	}
}

// printCacheSpeedup summarizes the serving headline number: how much
// faster a semantic-cache hit answers the 1M-row feature query than a
// fresh execution of the same statement.
func printCacheSpeedup(results []benchfmt.Result) {
	var uncached, cached float64
	for _, r := range results {
		switch r.Name {
		case "UncachedQuery1M":
			uncached = r.NsPerOp
		case "CachedQuery1M":
			cached = r.NsPerOp
		}
	}
	if uncached > 0 && cached > 0 {
		fmt.Printf("  %-20s %.0fx cache-hit speedup over fresh execution\n",
			"Query1M", uncached/cached)
	}
}

// printStreamRates turns each StreamFanout/sN result into the
// streaming headline number: notifications delivered per second at
// that subscriber fan-out (one live append pushes one notification to
// every subscriber).
func printStreamRates(results []benchfmt.Result) {
	for _, r := range results {
		subs, ok := strings.CutPrefix(r.Name, "StreamFanout/s")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(subs, "%d", &n); err != nil {
			continue
		}
		fmt.Printf("  %-20s %10.0f notifications/sec (%d subscribers)\n",
			r.Name, float64(n)/(r.NsPerOp/1e9), n)
	}
}

// benchStreamFanout times one live append propagated through n
// standing subscriptions: the event append, the watermark move, the
// epoch-gated re-evaluation of every subscription, and draining every
// subscriber queue. The LAST window keeps each pushed result set
// small and distinct between steps so no push is suppressed.
func benchStreamFanout(n int) func(b *testing.B) {
	return func(b *testing.B) {
		cat := cobra.NewCatalog(monet.NewStore())
		if err := cat.PutVideo(cobra.Video{Name: "live", Duration: 0.1, FPS: 10}); err != nil {
			b.Fatal(err)
		}
		if err := cat.SetLive("live", true); err != nil {
			b.Fatal(err)
		}
		m := stream.NewManager(query.NewEngine(cobra.NewPreprocessor(cat)))
		subs := make([]*stream.Subscription, n)
		for i := range subs {
			s, err := m.Subscribe("SELECT SEGMENTS FROM live WHERE EVENT('passing') LAST 5 S", nil)
			if err != nil {
				b.Fatal(err)
			}
			subs[i] = s
		}
		ctx := context.Background()
		w := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := w
			w++
			_, err := cat.AppendEvents("live", []cobra.Event{{
				Video: "live", Type: "passing", Confidence: 1,
				Interval: cobra.Interval{Start: from, End: w},
			}})
			if err != nil {
				b.Fatal(err)
			}
			if err := cat.SetDuration("live", w); err != nil {
				b.Fatal(err)
			}
			if got := m.Advance(ctx); got != n {
				b.Fatalf("Advance pushed %d notifications, want %d", got, n)
			}
			for _, s := range subs {
				for {
					if _, ok := s.TryNext(); !ok {
						break
					}
				}
			}
		}
	}
}

// parallelWidth is the pool width the Parallel* benchmarks run at: at
// least 4 so the parallel code paths are exercised even on small
// machines, matching the ≥4-core CI runners the baseline tracks.
func parallelWidth() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// widthBench pins the kernel pool to w workers for the run: width 1
// takes every operator's serial path, wider pools go morsel-parallel.
func widthBench(w int, fn func(b *testing.B)) func(b *testing.B) {
	return func(b *testing.B) {
		prev := monet.SetDefaultPoolWorkers(w)
		defer monet.SetDefaultPoolWorkers(prev)
		fn(b)
	}
}

// bigBAT builds a [void, int] BAT of n rows with tails cycling over
// [0, mod).
func bigBAT(n, mod int) *monet.BAT {
	bat := monet.NewBATCap(monet.Void, monet.IntT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%mod)))
	}
	return bat
}

// benchSelect1M range-selects ~10% of a 1M-row BAT; the pool width set
// by the Serial/Parallel wrapper decides the execution path.
func benchSelect1M(b *testing.B) {
	bat := bigBAT(1<<20, 1000)
	lo, hi := monet.NewInt(100), monet.NewInt(199)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Select(lo, hi)
	}
}

// benchGroupAgg1M computes a 64-group sum over 1M rows.
func benchGroupAgg1M(b *testing.B) {
	bat := monet.NewBATCap(monet.IntT, monet.IntT, 1<<20)
	for i := 0; i < 1<<20; i++ {
		bat.MustInsert(monet.NewInt(int64(i%64)), monet.NewInt(int64(i%100)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.GroupSum(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJoin1M probes 1M rows against a 100k-key build side.
func benchJoin1M(b *testing.B) {
	const keys = 100_000
	left := bigBAT(1<<20, keys)
	right := monet.NewBATCap(monet.IntT, monet.IntT, keys)
	for i := 0; i < keys; i++ {
		right.MustInsert(monet.NewInt(int64(i)), monet.NewInt(int64(i)*2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUnfusedSelectAgg1M is the operator-at-a-time select→aggregate
// baseline the fused pipeline is judged against: materialize the
// filtered BAT (the gathered intermediate the paper's MIL chains
// produce), then sum it. ~10% selectivity over 1M int rows.
func benchUnfusedSelectAgg1M(b *testing.B) {
	bat := bigBAT(1<<20, 1000)
	lo, hi := monet.NewInt(100), monet.NewInt(199)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.Select(lo, hi).Sum(); err != nil {
			b.Fatal(err)
		}
	}
}

// fusedAggStore builds the fused-pipeline fixture: "bench/val", a
// 1M-row int column cycling [0, 1000).
func fusedAggStore(b *testing.B) *monet.Store {
	store := monet.NewStore()
	n := 1 << 20
	val := monet.NewBATCap(monet.Void, monet.IntT, n)
	for i := 0; i < n; i++ {
		val.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%1000)))
	}
	if err := store.Put("bench/val", val); err != nil {
		b.Fatal(err)
	}
	return store
}

// benchFusedSelectAgg1M times the fused select→sum pipeline over the
// same workload as SelectAgg1M: no position slice, no gathered
// intermediate — each morsel feeds its qualifying runs straight into
// the sum, and the store's adaptive paths (cracker, after the warmup
// graduates the column) answer the predicate. One untimed call warms
// the index state, like the access-path benchmarks.
func benchFusedSelectAgg1M(b *testing.B) {
	store := fusedAggStore(b)
	p := store.Pipeline("bench/val", monet.NewInt(100), monet.NewInt(199))
	ctx := context.Background()
	if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
			b.Fatal(err)
		}
	}
}

// accessStore builds a store holding "bench/val", a 1M-row float
// column ascending over [0, 1000) — the clustered layout of
// time-ordered telemetry, where zone-map pruning actually bites. The
// access-path benchmarks select [100, 199.5] from it (~10%
// selectivity, ~90% of morsels prunable). Float tails keep
// Scan/ZoneMap/Crack comparisons apples-to-apples: the scan variant
// needs a NaN row to pin the gate on PathScan, and NaN only exists
// for floats.
func accessStore(b *testing.B, withNaN bool) *monet.Store {
	store := monet.NewStore()
	n := 1 << 20
	bat := monet.NewBATCap(monet.Void, monet.FloatT, n+1)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.VoidValue(), monet.NewFloat(float64(i)*1000/float64(n)))
	}
	if withNaN {
		// One NaN poisons index structures: the cost gate marks the
		// column unsafe and every select takes the full parallel scan.
		bat.MustInsert(monet.VoidValue(), monet.NewFloat(math.NaN()))
	}
	if err := store.Put("bench/val", bat); err != nil {
		b.Fatal(err)
	}
	return store
}

// benchAccessSelect warms the index state with one untimed select,
// then times SelectPositions over [100, 199.5].
func benchAccessSelect(b *testing.B, store *monet.Store) {
	lo, hi := monet.NewFloat(100), monet.NewFloat(199.5)
	if _, _, err := store.SelectPositions("bench/val", lo, hi); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.SelectPositions("bench/val", lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanSelect1M is the full morsel-parallel scan the adaptive
// paths are judged against: a NaN row pins the gate on PathScan.
func benchScanSelect1M(b *testing.B) {
	benchAccessSelect(b, accessStore(b, true))
}

// benchZoneMapSelect1M holds the gate on zone-map pruning by raising
// the crack threshold out of reach.
func benchZoneMapSelect1M(b *testing.B) {
	prev := monet.SetCrackThreshold(1 << 30)
	defer monet.SetCrackThreshold(prev)
	store := accessStore(b, false)
	if _, err := store.BuildZoneMap("bench/val"); err != nil {
		b.Fatal(err)
	}
	benchAccessSelect(b, store)
}

// benchCrackSelect1M force-builds the cracker so every timed select
// answers from the incrementally partitioned copy.
func benchCrackSelect1M(b *testing.B) {
	store := accessStore(b, false)
	if _, err := store.Crack("bench/val"); err != nil {
		b.Fatal(err)
	}
	benchAccessSelect(b, store)
}

// benchDictEq1M times a string equality select answered by the
// dictionary: 1M rows over 500 distinct labels, ~0.2% selectivity.
func benchDictEq1M(b *testing.B) {
	store := monet.NewStore()
	n := 1 << 20
	bat := monet.NewBATCap(monet.Void, monet.StrT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.VoidValue(), monet.NewStr(fmt.Sprintf("label-%03d", i%500)))
	}
	if err := store.Put("bench/label", bat); err != nil {
		b.Fatal(err)
	}
	eq := monet.NewStr("label-042")
	if _, _, err := store.SelectPositions("bench/label", eq, eq); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.SelectPositions("bench/label", eq, eq); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBATJoin(b *testing.B) {
	const n = 5000
	left := monet.NewBATCap(monet.OIDT, monet.IntT, n)
	right := monet.NewBATCap(monet.IntT, monet.StrT, n)
	for i := 0; i < n; i++ {
		left.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(int64(i)))
		right.MustInsert(monet.NewInt(int64(i)), monet.NewStr("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBATUselect(b *testing.B) {
	const n = 100000
	bat := monet.NewBATCap(monet.OIDT, monet.IntT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(int64(i%1000)))
	}
	lo, hi := monet.NewInt(100), monet.NewInt(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Uselect(lo, hi)
	}
}

func benchMILExec(b *testing.B) {
	in := mil.NewInterp(monet.NewStore())
	const prog = `VAR b := new(void,int); b.insert(nil, 41); RETURN b.sum + 1;`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Exec(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHMMEvalParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pool := hmm.NewEnginePool(7)
	for _, name := range []string{"Service", "Forehand", "Smash", "Backhand", "VolleyBackhand", "VolleyForehand"} {
		m := hmm.NewModel(name, 8, 16)
		m.Randomize(rng)
		if err := pool.Register(m); err != nil {
			b.Fatal(err)
		}
	}
	obs := make([]int, 2000)
	for i := range obs {
		obs[i] = rng.Intn(16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.EvaluateAll(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// servingQuery is the statement the cache benchmarks run: a feature
// threshold over a 1M-sample materialized stream, so every uncached
// execution pays a full 1M-row kernel scan while the result body stays
// a handful of segments.
const servingQuery = `SELECT SEGMENTS FROM v WHERE FEATURE('speed') > 0.5`

// servingServer builds a server over a 1M-sample feature stream,
// attaching a result cache of the given budget (0: no cache).
func servingServer(b *testing.B, cacheBytes int64) *server.Server {
	b.Helper()
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 1 << 17, FPS: 8}); err != nil {
		b.Fatal(err)
	}
	// Half the rows qualify, in long alternating blocks: the kernel's
	// range select (even answered from an index) hands back ~512k
	// qualifying positions that the engine must walk into runs, so an
	// uncached execution pays O(n) work per request while the answer
	// itself stays 8 segments.
	n := 1 << 20
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.1
		if (i>>16)%2 == 0 {
			vals[i] = 0.9
		}
	}
	if _, err := cat.AppendFeatureSamples("v", "speed", 8, vals); err != nil {
		b.Fatal(err)
	}
	srv := server.New(cobra.NewPreprocessor(cat), nil)
	if cacheBytes > 0 {
		srv.SetCache(qcache.New(cacheBytes))
	}
	// One untimed run sanity-checks the response shape.
	var out strings.Builder
	srv.Serve(servingQuery, &out)
	if !strings.HasPrefix(out.String(), "OK ") {
		b.Fatalf("serving fixture query failed:\n%s", out.String())
	}
	return srv
}

// benchUncachedQuery1M times the full serving path with no result
// cache attached: every request parses, plans and scans 1M rows.
func benchUncachedQuery1M(b *testing.B) {
	srv := servingServer(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Serve(servingQuery, io.Discard)
	}
}

// benchCachedQuery1M times the same request answered warm: canonical
// key, epoch fingerprint check, and a replay of the stored body.
func benchCachedQuery1M(b *testing.B) {
	srv := servingServer(b, qcache.DefaultMaxBytes)
	// Warm twice: the first execution may bump its own dependency
	// epochs (lazy materialization), stale-marking the entry it stored.
	srv.Serve(servingQuery, io.Discard)
	srv.Serve(servingQuery, io.Discard)
	if st := srv.Cache().Stats(); st.Entries == 0 {
		b.Fatalf("warmup stored nothing: %+v", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Serve(servingQuery, io.Discard)
	}
	if st := srv.Cache().Stats(); st.Hits < int64(b.N) {
		b.Fatalf("timed loop was not all hits: %+v over %d iterations", st, b.N)
	}
}

// benchCacheMissEvict times the cache's worst case on a small corpus:
// a budget sized for a single entry and a rotating set of distinct
// statements, so every request misses, stores, and evicts the previous
// tenant. Isolates miss-path bookkeeping from kernel scan cost.
func benchCacheMissEvict(b *testing.B) {
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 600, FPS: 10}); err != nil {
		b.Fatal(err)
	}
	events := make([]cobra.Event, 0, 200)
	for i := 0; i < 200; i++ {
		events = append(events, cobra.Event{
			Type:       "highlight",
			Interval:   cobra.Interval{Start: float64(i * 3), End: float64(i*3 + 2)},
			Confidence: 0.9,
		})
	}
	if err := cat.PutEvents("v", events); err != nil {
		b.Fatal(err)
	}
	srv := server.New(cobra.NewPreprocessor(cat), nil)
	srv.SetCache(qcache.New(1 << 10))
	stmts := make([]string, 8)
	for i := range stmts {
		stmts[i] = fmt.Sprintf(
			`SELECT SEGMENTS FROM v WHERE EVENT('highlight') LIMIT %d`, 20+i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Serve(stmts[i%len(stmts)], io.Discard)
	}
	if st := srv.Cache().Stats(); st.Hits > 0 && st.Evictions == 0 {
		b.Fatalf("eviction bench degenerated into hits: %+v", st)
	}
}

func benchCOQLQuery(b *testing.B) {
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 600, FPS: 10}); err != nil {
		b.Fatal(err)
	}
	events := make([]cobra.Event, 0, 200)
	for i := 0; i < 200; i++ {
		events = append(events, cobra.Event{
			Type:       "highlight",
			Interval:   cobra.Interval{Start: float64(i * 3), End: float64(i*3 + 2)},
			Confidence: 0.9,
		})
	}
	if err := cat.PutEvents("v", events); err != nil {
		b.Fatal(err)
	}
	eng := query.NewEngine(cobra.NewPreprocessor(cat))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`); err != nil {
			b.Fatal(err)
		}
	}
}
