package monet

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"cobra/internal/obs"
)

// Fused vectorized pipelines: select→project→aggregate executed
// morsel-at-a-time with no intermediate OID BAT between the operators.
// The classic operator-at-a-time path materializes the qualifying
// positions of a range select as an []int, gathers every downstream
// column through it, and only then aggregates; a Pipeline instead
// pushes the predicate into the consumer: each morsel finds its
// matching rows as in-register runs in arena scratch (arena.go) and
// feeds them straight to the aggregate. Per-morsel partials merge in
// morsel order, so a fused result is byte-identical to the unfused
// one — and whenever the cost gate cannot prove that identity
// (mixed-type or NaN bounds, NaN values in a float column, inexact
// float sums, column shapes without a typed kernel), the pipeline
// silently executes the unfused operator-at-a-time path instead.
//
// The predicate reuses the adaptive access paths of accesspath.go:
// zone maps prune whole morsels before the fused scan runs, crackers
// answer with their cached position lists, and dict-encoded string
// columns match int32 codes without ever decoding the tail.

// Fused-execution metrics (monet.fused.*): pipelines that ran fused vs
// fell back to the operator-at-a-time path, rows consumed in-register,
// and runs emitted instead of position slices.
var (
	cFusedPipelines = obs.C("monet.fused.pipelines")
	cFusedFallbacks = obs.C("monet.fused.fallbacks")
	cFusedRows      = obs.C("monet.fused.rows")
	cFusedRuns      = obs.C("monet.fused.runs")
	hFusedLat       = obs.H("monet.fused.latency")
	hFusedSpd       = obs.H("monet.fused.speedup")
)

// Run is a maximal range of consecutive qualifying positions
// [Start, Start+Len). Fused pipelines hand candidate positions to
// consumers as runs instead of allocated position slices.
type Run struct {
	// Start is the first qualifying position of the run.
	Start int
	// Len is the number of consecutive qualifying positions.
	Len int
}

// RunsOf converts an ascending position list to its maximal runs.
func RunsOf(pos []int) []Run {
	var runs []Run
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		runs = append(runs, Run{Start: pos[i], Len: j - i})
		i = j
	}
	return runs
}

// FusedInfo describes how one pipeline executed: whether it ran fused,
// the pipeline stages, the fallback reason when it did not, and the
// access-path detail of the selection stage.
type FusedInfo struct {
	// Fused reports whether the fused path ran (false = the gate chose
	// the byte-identical operator-at-a-time fallback).
	Fused bool
	// Stages names the pipeline stages, e.g. "select→sum" or
	// "select→runs".
	Stages string
	// Fallback is the cost-gate reason when Fused is false.
	Fallback string
	// Access describes the selection stage's access path.
	Access *AccessInfo
}

// String renders the info the way EXPLAIN and trace spans attach it.
func (fi *FusedInfo) String() string {
	s := "fused=" + fi.Stages
	if !fi.Fused {
		s = "fused=no(" + fi.Fallback + ")"
	}
	if fi.Access != nil {
		s += " " + fi.Access.String()
	}
	return s
}

// Pipeline is a fused select→aggregate execution over a stored BAT: a
// range predicate over one named column, pushed directly into an
// aggregate over a positionally aligned column of the same store.
type Pipeline struct {
	s    *Store
	pred string
	lo   Value
	hi   Value
}

// Pipeline starts a fused pipeline selecting the rows of the named
// BAT whose tail lies in [lo, hi].
func (s *Store) Pipeline(pred string, lo, hi Value) *Pipeline {
	return &Pipeline{s: s, pred: pred, lo: lo, hi: hi}
}

// fusedSource is the prepared selection stage of a fused pipeline:
// either an inline typed predicate over (possibly zone-map-pruned)
// morsels, a dictionary-code predicate, or a position list already
// answered by the cracker.
type fusedSource struct {
	col     Column
	lo, hi  Value
	morsels []int   // surviving morsel indices under zone-map pruning (nil = all)
	pos     []int   // index-answered positions (crack path); nil otherwise
	codes   []int32 // dict codes when the predicate runs in code domain
	cl, ch  int32   // dict code bounds: match is cl <= code < ch
	info    *AccessInfo
}

// fuseLocked is the fused cost gate: it decides whether a fused
// pipeline over col can reproduce the unfused result bit-for-bit and
// prepares the selection stage, building zone maps / dictionaries and
// consulting the cracker exactly like selectLocked would. A non-empty
// reason means the caller must take the operator-at-a-time fallback.
// The caller holds ix.mu.
func (ix *batIndex) fuseLocked(col Column, lo, hi Value) (*fusedSource, string) {
	if lo.Typ != col.Type() || hi.Typ != col.Type() {
		return nil, "mixed-type bounds"
	}
	if isNaNValue(lo) || isNaNValue(hi) {
		return nil, "nan bound"
	}
	if ix.unsafe {
		return nil, "nan in column"
	}
	fs := &fusedSource{col: col, lo: lo, hi: hi, info: &AccessInfo{Path: PathScan, Rows: col.Len()}}
	path := ix.planLocked(col, lo, hi)
	ix.selects++
	switch c := col.(type) {
	case *strColumn:
		if ix.dict == nil {
			ix.dict = buildDict(c)
			cDictBuilds.Inc()
		}
		cl := int32(searchStrings(ix.dict.keys, lo.Str()))
		ch := int32(searchStringsAfter(ix.dict.keys, hi.Str()))
		if cl < ch {
			cDictHits.Inc()
		} else {
			cDictMisses.Inc()
		}
		fs.codes, fs.cl, fs.ch = ix.dict.codes, cl, ch
		fs.info.Path = PathDict
		fs.info.DictSize = len(ix.dict.keys)
		return fs, ""
	case *intColumn, *oidColumn:
		// Always exactly representable; no pre-pass needed.
	case *floatColumn:
		// A NaN row compares equal to everything under Compare, so the
		// scan would match it against any bounds; the typed fused loop
		// would not. The zone map (built here if missing — it doubles
		// as the pruning structure) proves the column NaN-free.
		if ix.zm == nil {
			ix.zm = buildZoneMap(col)
			cZmBuilds.Inc()
		}
		if ix.zm.unsafe {
			ix.unsafe = true
			return nil, "nan in column"
		}
	default:
		return nil, fmt.Sprintf("unfusable predicate column type %v", col.Type())
	}
	if path == PathCrack {
		if ix.cr == nil {
			cr, ok := buildCracker(col)
			if ok && cr != nil {
				ix.cr = cr
				cCrBuilds.Inc()
			}
		}
		if ix.cr != nil {
			before := ix.cr.cracks()
			fs.pos = ix.cr.selectRange(lo, hi)
			cCrCracks.Add(int64(ix.cr.cracks() - before))
			hCrPieces.ObserveNs(int64(ix.cr.pieces()))
			fs.info.Path = PathCrack
			fs.info.CrackPieces = ix.cr.pieces()
			fs.info.Matched = len(fs.pos)
			return fs, ""
		}
	}
	if ix.zm == nil && col.Len() >= ParallelThreshold {
		ix.zm = buildZoneMap(col)
		cZmBuilds.Inc()
		if ix.zm.unsafe {
			ix.unsafe = true
			return nil, "nan in column"
		}
	}
	if ix.zm != nil {
		fs.morsels = ix.zm.prune(lo, hi)
		fs.info.MorselsTotal = numMorsels(col.Len())
		fs.info.MorselsPruned = fs.info.MorselsTotal - len(fs.morsels)
		cZmScanned.Add(int64(len(fs.morsels)))
		cZmPruned.Add(int64(fs.info.MorselsPruned))
		if fs.info.MorselsPruned > 0 {
			fs.info.Path = PathZoneMap
		}
	}
	return fs, ""
}

// searchStrings is sort.SearchStrings without the import knot: the
// first index whose key >= s.
func searchStrings(keys []string, s string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchStringsAfter returns the first index whose key > s.
func searchStringsAfter(keys []string, s string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// matchRuns writes the maximal runs of qualifying rows inside
// [lo, hi) into starts/lens (arena scratch sized (hi-lo)/2+1) and
// returns the run count. The loops are typed: no Value boxing, no
// Compare calls — the gate already proved the raw comparisons agree
// with Compare for these operands.
func (fs *fusedSource) matchRuns(lo, hi int, starts, lens []int) int {
	nr := 0
	open := false
	emit := func(i int, match bool) {
		if match {
			if !open {
				starts[nr] = i
				lens[nr] = 1
				nr++
				open = true
			} else {
				lens[nr-1]++
			}
			return
		}
		open = false
	}
	switch {
	case fs.codes != nil:
		v, cl, ch := fs.codes, fs.cl, fs.ch
		for i := lo; i < hi; i++ {
			emit(i, v[i] >= cl && v[i] < ch)
		}
	default:
		switch c := fs.col.(type) {
		case *intColumn:
			v, lb, ub := c.v, fs.lo.I, fs.hi.I
			for i := lo; i < hi; i++ {
				emit(i, v[i] >= lb && v[i] <= ub)
			}
		case *oidColumn:
			v, lb, ub := c.v, fs.lo.I, fs.hi.I
			for i := lo; i < hi; i++ {
				k := int64(v[i])
				emit(i, k >= lb && k <= ub)
			}
		case *floatColumn:
			v, lb, ub := c.v, fs.lo.F, fs.hi.F
			for i := lo; i < hi; i++ {
				emit(i, v[i] >= lb && v[i] <= ub)
			}
		}
	}
	return nr
}

// forEachMorsel fans the fused consumer over the source's morsels —
// all of them, or only the zone-map survivors — passing each callback
// a dense slot k for its partial-state cell plus the row range. Wide
// inputs run on the shared pool; the caller merges partials in slot
// order, which is morsel order. Traced runs record morsel child spans
// marked fused=1 under sp (capped at maxMorselSpans) and accumulate
// queue-wait/run time into the trace's shared Resources.
func (fs *fusedSource) forEachMorsel(sp *obs.Span, fn func(k, lo, hi int)) int {
	n := fs.col.Len()
	nm := numMorsels(n)
	all := fs.morsels == nil
	slots := nm
	if !all {
		slots = len(fs.morsels)
	}
	rowRange := func(k int) (int, int) {
		m := k
		if !all {
			m = fs.morsels[k]
		}
		lo := m * MorselSize
		hi := lo + MorselSize
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	p, ok := poolFor(n)
	if !ok || slots <= 1 {
		for k := 0; k < slots; k++ {
			lo, hi := rowRange(k)
			fn(k, lo, hi)
		}
		return slots
	}
	res := sp.Resources()
	start := time.Now()
	var busy atomic.Int64
	b := p.Batch()
	for k := 0; k < slots; k++ {
		k := k
		var msp *obs.Span
		if sp != nil && k < maxMorselSpans {
			msp = sp.StartChild("monet.morsel")
			msp.SetAttr("morsel", strconv.Itoa(k))
			msp.SetAttr("fused", "1")
		}
		submitted := time.Now()
		//cobravet:allow allochot // one closure per morsel IS the fan-out unit; bounded by morsel count, not rows
		b.Submit(func() {
			t0 := time.Now()
			lo, hi := rowRange(k)
			fn(k, lo, hi)
			run := time.Since(t0)
			busy.Add(int64(run))
			if sp != nil {
				wait := t0.Sub(submitted)
				if wait < 0 {
					wait = 0
				}
				res.AddMorsel(wait, run)
				if msp != nil {
					msp.SetAttr("queue_wait", obs.FormatDuration(wait))
					msp.SetAttr("run", obs.FormatDuration(run))
					msp.Finish()
				}
			}
		})
	}
	b.Wait()
	observeFanout(hFusedLat, hFusedSpd, start, busy.Load())
	return slots
}

// intReader returns an int64 accessor over a column whose values are
// exactly representable integers (int/oid/bit), or nil: the agg-side
// gate for fused sum/avg/min/max, where float tails must fall back to
// keep bit-identity under reordered partial sums.
func intReader(c Column) func(i int) int64 {
	switch c := c.(type) {
	case *intColumn:
		v := c.v
		return func(i int) int64 { return v[i] }
	case *oidColumn:
		v := c.v
		return func(i int) int64 { return int64(v[i]) }
	case *boolColumn:
		v := c.v
		return func(i int) int64 {
			if v[i] {
				return 1
			}
			return 0
		}
	}
	return nil
}

// scalarPart is one morsel's partial scalar-aggregate state.
type scalarPart struct {
	sum    float64
	count  int64
	best   int64
	bestOK bool
}

// mergeScalar folds src into dst in morsel order: sums add, counts
// add, and min/max keep the first-occurrence extreme under the same
// strict compare the serial scan uses.
func mergeScalar(dst, src *scalarPart, sign int64) {
	dst.sum += src.sum
	dst.count += src.count
	if src.bestOK && (!dst.bestOK || sign*(src.best-dst.best) > 0) {
		dst.best = src.best
		dst.bestOK = true
	}
}

// Aggregate executes select→aggregate fused: the op ("count", "sum",
// "avg", "min", "max") over the named aggregate column restricted to
// the rows matched by the pipeline's predicate, without materializing
// positions or a filtered BAT. Results are byte-identical to
// SelectPositions + Gather + the BAT aggregate; when the gate cannot
// prove that (NaN/mixed-type predicates, float aggregate columns), it
// executes exactly that fallback.
func (p *Pipeline) Aggregate(ctx context.Context, agg, op string) (Value, *FusedInfo, error) {
	b, ix, err := p.s.capture(p.pred)
	if err != nil {
		return Value{}, nil, err
	}
	defer ix.mu.Unlock()
	ab, err := p.s.Get(agg)
	if err != nil {
		return Value{}, nil, err
	}
	if ab.Len() != b.Len() {
		return Value{}, nil, fmt.Errorf("monet: fused aggregate: %q has %d rows, %q has %d", p.pred, b.Len(), agg, ab.Len())
	}
	cIdxSelects.Inc()
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", p.pred)
	defer sp.Finish()
	stages := "select→" + op

	fs, reason := ix.fuseLocked(b.tail, p.lo, p.hi)
	var sign int64
	readerNeeded := op != "count"
	valAt := intReader(ab.tail)
	if reason == "" && readerNeeded && valAt == nil {
		reason = fmt.Sprintf("inexact or non-integer aggregate column %v", ab.TailType())
	}
	switch op {
	case "min":
		sign = -1
	case "max":
		sign = 1
	case "count", "sum", "avg":
	default:
		return Value{}, nil, fmt.Errorf("monet: fused aggregate: unknown op %q", op)
	}
	if reason != "" {
		v, info, err := p.fallbackAggregate(ix, b, ab, op, sp)
		fi := &FusedInfo{Fused: false, Stages: stages, Fallback: reason, Access: info}
		cFusedFallbacks.Inc()
		sp.SetAttr("fused", fi.String())
		return v, fi, err
	}

	total := p.consumeScalar(fs, sp, op, valAt, sign)
	fs.info.Matched = int(total.count)
	fi := &FusedInfo{Fused: true, Stages: stages, Access: fs.info}
	cFusedPipelines.Inc()
	cFusedRows.Add(total.count)
	sp.SetAttr("access", fs.info.String())
	sp.SetAttr("fused", fi.String())
	sp.Resources().AddScanned(scannedRows(fs.info))

	switch op {
	case "count":
		return NewInt(total.count), fi, nil
	case "sum":
		return NewFloat(total.sum), fi, nil
	case "avg":
		if total.count == 0 {
			return NewFloat(math.NaN()), fi, nil
		}
		return NewFloat(total.sum / float64(total.count)), fi, nil
	}
	if !total.bestOK {
		return Value{}, fi, fmt.Errorf("monet: fused aggregate: %s over empty selection", op)
	}
	return typedInt(ab.TailType(), total.best), fi, nil
}

// typedInt reconstructs the Value an integer-domain column's Get would
// box for payload k.
func typedInt(t Type, k int64) Value {
	switch t {
	case OIDT:
		return NewOID(OID(k))
	case BoolT:
		return NewBool(k != 0)
	}
	return NewInt(k)
}

// consumeScalar runs the fused scalar-aggregate consumer over the
// prepared source and returns the morsel-order merge of the partials.
func (p *Pipeline) consumeScalar(fs *fusedSource, sp *obs.Span, op string, valAt func(i int) int64, sign int64) scalarPart {
	var total scalarPart
	consume := func(part *scalarPart, lo, hi int) {
		for i := lo; i < hi; i++ {
			part.count++
			if valAt == nil {
				continue
			}
			v := valAt(i)
			switch op {
			case "sum", "avg":
				part.sum += float64(v)
			case "min", "max":
				if !part.bestOK || sign*(v-part.best) > 0 {
					part.best = v
					part.bestOK = true
				}
			}
		}
	}
	if fs.pos != nil {
		// Crack path: the index answered with its cached position list;
		// consume it in-register, run by run, without gathering.
		runs := RunsOf(fs.pos)
		for _, r := range runs {
			consume(&total, r.Start, r.Start+r.Len)
		}
		cFusedRuns.Add(int64(len(runs)))
		return total
	}
	nm := numMorsels(fs.col.Len())
	if fs.morsels != nil {
		nm = len(fs.morsels)
	}
	parts := make([]scalarPart, nm)
	var runsSeen int64
	fs.forEachMorsel(sp, func(k, lo, hi int) {
		a := GetArena()
		starts := a.Ints((hi-lo)/2 + 1)
		lens := a.Ints((hi-lo)/2 + 1)
		nr := fs.matchRuns(lo, hi, starts, lens)
		part := &parts[k]
		for r := 0; r < nr; r++ {
			consume(part, starts[r], starts[r]+lens[r])
		}
		PutArena(a)
	})
	for m := range parts {
		mergeScalar(&total, &parts[m], sign)
		runsSeen++
	}
	cFusedRuns.Add(runsSeen)
	return total
}

// SelectRuns returns the qualifying rows of the named BAT's tail range
// select as maximal runs instead of a position slice. On the fused
// path each morsel emits its runs in-register (arena scratch, no
// per-position allocation) and adjacent morsel boundaries merge, so a
// 50%-selective scan over a clustered column returns a handful of
// runs where SelectPositions would allocate half a million ints. The
// result is always exactly RunsOf(SelectPositions(...)).
func (s *Store) SelectRuns(name string, lo, hi Value) ([]Run, *FusedInfo, error) {
	return s.SelectRunsCtx(context.Background(), name, lo, hi)
}

// SelectRunsCtx is SelectRuns under a trace context: the select
// records a "monet.select" span whose access and fused attrs describe
// the pipeline, with fused morsel child spans for parallel scans.
func (s *Store) SelectRunsCtx(ctx context.Context, name string, lo, hi Value) ([]Run, *FusedInfo, error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, nil, err
	}
	defer ix.mu.Unlock()
	cIdxSelects.Inc()
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", name)
	defer sp.Finish()

	fs, reason := ix.fuseLocked(b.tail, lo, hi)
	if reason != "" {
		idx, info := ix.selectLocked(b.tail, lo, hi, sp)
		fi := &FusedInfo{Fused: false, Stages: "select→runs", Fallback: reason, Access: info}
		cFusedFallbacks.Inc()
		sp.SetAttr("access", info.String())
		sp.SetAttr("fused", fi.String())
		sp.Resources().AddScanned(scannedRows(info))
		return RunsOf(idx), fi, nil
	}
	var runs []Run
	matched := 0
	if fs.pos != nil {
		runs = RunsOf(fs.pos)
		matched = len(fs.pos)
	} else {
		nm := numMorsels(fs.col.Len())
		if fs.morsels != nil {
			nm = len(fs.morsels)
		}
		parts := make([][]Run, nm)
		fs.forEachMorsel(sp, func(k, mlo, mhi int) {
			a := GetArena()
			starts := a.Ints((mhi-mlo)/2 + 1)
			lens := a.Ints((mhi-mlo)/2 + 1)
			nr := fs.matchRuns(mlo, mhi, starts, lens)
			if nr > 0 {
				// Copy out of the arena: the runs outlive the morsel.
				part := make([]Run, nr)
				for r := 0; r < nr; r++ {
					part[r] = Run{Start: starts[r], Len: lens[r]}
				}
				parts[k] = part
			}
			PutArena(a)
		})
		for _, part := range parts {
			for _, r := range part {
				matched += r.Len
				if n := len(runs); n > 0 && runs[n-1].Start+runs[n-1].Len == r.Start {
					runs[n-1].Len += r.Len
					continue
				}
				runs = append(runs, r)
			}
		}
	}
	fs.info.Matched = matched
	fi := &FusedInfo{Fused: true, Stages: "select→runs", Access: fs.info}
	cFusedPipelines.Inc()
	cFusedRows.Add(int64(matched))
	cFusedRuns.Add(int64(len(runs)))
	sp.SetAttr("access", fs.info.String())
	sp.SetAttr("fused", fi.String())
	sp.Resources().AddScanned(scannedRows(fs.info))
	return runs, fi, nil
}

// FusedDecision reports, without executing the pipeline or building
// indexes, the cost-gate verdict for a select→aggregate pipeline over
// pred/agg: "fused" or "fallback(<reason>)". Plan caches fold it into
// their keys so a memoized fused plan is never replayed once column
// state (a NaN discovered mid-scan, a type change, re-registration)
// flips the decision.
func (s *Store) FusedDecision(pred, agg string, lo, hi Value, op string) string {
	b, ix, err := s.capture(pred)
	if err != nil {
		return "fallback(" + err.Error() + ")"
	}
	defer ix.mu.Unlock()
	col := b.tail
	reason := ""
	switch {
	case lo.Typ != col.Type() || hi.Typ != col.Type():
		reason = "mixed-type bounds"
	case isNaNValue(lo) || isNaNValue(hi):
		reason = "nan bound"
	case ix.unsafe:
		reason = "nan in column"
	default:
		switch col.(type) {
		case *strColumn, *intColumn, *oidColumn, *floatColumn:
		default:
			reason = fmt.Sprintf("unfusable predicate column type %v", col.Type())
		}
	}
	if reason == "" && op != "count" {
		ab, err := s.Get(agg)
		switch {
		case err != nil:
			reason = err.Error()
		case intReader(ab.tail) == nil:
			reason = fmt.Sprintf("inexact or non-integer aggregate column %v", ab.TailType())
		}
	}
	if reason != "" {
		return "fallback(" + reason + ")"
	}
	return "fused"
}

// fallbackAggregate is the operator-at-a-time reference path the gate
// falls back to: materialize the qualifying positions through the
// adaptive select, gather the aggregate column, aggregate the result.
func (p *Pipeline) fallbackAggregate(ix *batIndex, b, ab *BAT, op string, sp *obs.Span) (Value, *AccessInfo, error) {
	idx, info := ix.selectLocked(b.tail, p.lo, p.hi, sp)
	sp.SetAttr("access", info.String())
	sp.Resources().AddScanned(scannedRows(info))
	if op == "count" {
		return NewInt(int64(len(idx))), info, nil
	}
	wrap := &BAT{head: &voidColumn{n: len(idx)}, tail: ab.tail.Gather(idx)}
	switch op {
	case "sum":
		s, err := wrap.Sum()
		if err != nil {
			return Value{}, info, err
		}
		return NewFloat(s), info, nil
	case "avg":
		s, err := wrap.Avg()
		if err != nil {
			return Value{}, info, err
		}
		return NewFloat(s), info, nil
	case "min":
		v, ok := wrap.Min()
		if !ok {
			return Value{}, info, fmt.Errorf("monet: fused aggregate: min over empty selection")
		}
		return v, info, nil
	case "max":
		v, ok := wrap.Max()
		if !ok {
			return Value{}, info, fmt.Errorf("monet: fused aggregate: max over empty selection")
		}
		return v, info, nil
	}
	return Value{}, info, fmt.Errorf("monet: fused aggregate: unknown op %q", op)
}
