package monet

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn with the shared pool resized to width, restoring
// the previous width afterwards.
func withWorkers(t *testing.T, width int, fn func()) {
	t.Helper()
	prev := SetDefaultPoolWorkers(width)
	defer SetDefaultPoolWorkers(prev)
	fn()
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	b := p.Batch()
	for i := 0; i < 1000; i++ {
		b.Submit(func() { n.Add(1) })
	}
	b.Wait()
	if n.Load() != 1000 {
		t.Fatalf("ran %d tasks, want 1000", n.Load())
	}
}

func TestPoolNestedBatches(t *testing.T) {
	// A task that itself fans out onto the same pool must not deadlock,
	// even when the fan-out far exceeds the worker count.
	p := NewPool(2)
	defer p.Close()
	var n atomic.Int64
	outer := p.Batch()
	for i := 0; i < 8; i++ {
		outer.Submit(func() {
			inner := p.Batch()
			for j := 0; j < 50; j++ {
				inner.Submit(func() { n.Add(1) })
			}
			inner.Wait()
		})
	}
	outer.Wait()
	if n.Load() != 400 {
		t.Fatalf("ran %d nested tasks, want 400", n.Load())
	}
}

func TestPoolClosedRunsInline(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	var n atomic.Int64
	b := p.Batch()
	b.Submit(func() { n.Add(1) })
	b.Wait()
	if n.Load() != 1 {
		t.Fatal("closed pool dropped a task")
	}
}

func TestSetDefaultPoolWorkers(t *testing.T) {
	prev := SetDefaultPoolWorkers(3)
	defer SetDefaultPoolWorkers(prev)
	if got := DefaultPool().Workers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
	if p := SetDefaultPoolWorkers(5); p != 3 {
		t.Fatalf("previous width = %d, want 3", p)
	}
	if p := SetDefaultPoolWorkers(1 << 20); p != 5 {
		t.Fatalf("previous width = %d, want 5", p)
	}
	if got := DefaultPool().Workers(); got != maxPoolWorkers {
		t.Fatalf("width clamped to %d, want %d", got, maxPoolWorkers)
	}
}

// parallelTestBAT is large enough to clear ParallelThreshold with a
// row count that is deliberately not a multiple of MorselSize.
func parallelTestBAT(kind string) *BAT {
	n := ParallelThreshold + MorselSize/2 + 7
	switch kind {
	case "int":
		b := NewBATCap(Void, IntT, n)
		for i := 0; i < n; i++ {
			b.MustInsert(VoidValue(), NewInt(int64((i*2654435761)%1000)))
		}
		return b
	case "str":
		b := NewBATCap(Void, StrT, n)
		for i := 0; i < n; i++ {
			b.MustInsert(VoidValue(), NewStr(fmt.Sprintf("k%d", i%97)))
		}
		return b
	case "float":
		b := NewBATCap(Void, FloatT, n)
		for i := 0; i < n; i++ {
			b.MustInsert(VoidValue(), NewFloat(float64(i%513)))
		}
		return b
	}
	panic("unknown kind " + kind)
}

func requireBATsEqual(t *testing.T, got, want *BAT, op string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d, want %d", op, got.Len(), want.Len())
	}
	if got.HeadType() != want.HeadType() || got.TailType() != want.TailType() {
		t.Fatalf("%s: type [%v,%v], want [%v,%v]", op,
			got.HeadType(), got.TailType(), want.HeadType(), want.TailType())
	}
	for i := 0; i < got.Len(); i++ {
		if !Equal(got.Head(i), want.Head(i)) || !Equal(got.Tail(i), want.Tail(i)) {
			t.Fatalf("%s: row %d = [%v,%v], want [%v,%v]", op, i,
				got.Head(i), got.Tail(i), want.Head(i), want.Tail(i))
		}
	}
}

func TestParallelSelectMatchesSerial(t *testing.T) {
	for _, kind := range []string{"int", "str", "float"} {
		b := parallelTestBAT(kind)
		var lo, hi Value
		switch kind {
		case "int":
			lo, hi = NewInt(100), NewInt(300)
		case "str":
			lo, hi = NewStr("k10"), NewStr("k50")
		case "float":
			lo, hi = NewFloat(5), NewFloat(400)
		}
		var serial, parallel, uSerial, uParallel *BAT
		withWorkers(t, 1, func() { serial = b.Select(lo, hi); uSerial = b.Uselect(lo, hi) })
		withWorkers(t, 4, func() { parallel = b.Select(lo, hi); uParallel = b.Uselect(lo, hi) })
		requireBATsEqual(t, parallel, serial, kind+" select")
		requireBATsEqual(t, uParallel, uSerial, kind+" uselect")
	}
}

func TestParallelJoinMatchesSerial(t *testing.T) {
	for _, kind := range []string{"int", "str", "float"} {
		probe := parallelTestBAT(kind)
		// Build side keyed by a distinct subset of the probe's tails.
		build := NewBAT(probe.TailType(), IntT)
		seen := map[string]bool{}
		for i := 0; i < probe.Len(); i += 3 {
			v := probe.Tail(i)
			if seen[v.String()] {
				continue
			}
			seen[v.String()] = true
			build.MustInsert(v, NewInt(int64(i)))
		}
		var serial, parallel *BAT
		var errS, errP error
		withWorkers(t, 1, func() { serial, errS = probe.Join(build) })
		withWorkers(t, 4, func() { parallel, errP = probe.Join(build) })
		if errS != nil || errP != nil {
			t.Fatalf("%s join: %v / %v", kind, errS, errP)
		}
		requireBATsEqual(t, parallel, serial, kind+" join")
	}
}

func TestParallelJoinDuplicateKeys(t *testing.T) {
	// Duplicate build keys: every probe row matches several positions
	// and the pair order must still equal the serial nested loop.
	probe := parallelTestBAT("int")
	build := NewBAT(IntT, StrT)
	for r := 0; r < 3; r++ {
		for k := 0; k < 1000; k += 5 {
			build.MustInsert(NewInt(int64(k)), NewStr(fmt.Sprintf("v%d-%d", k, r)))
		}
	}
	var serial, parallel *BAT
	var errS, errP error
	withWorkers(t, 1, func() { serial, errS = probe.Join(build) })
	withWorkers(t, 4, func() { parallel, errP = probe.Join(build) })
	if errS != nil || errP != nil {
		t.Fatalf("join: %v / %v", errS, errP)
	}
	requireBATsEqual(t, parallel, serial, "dup-key join")
}

func TestParallelSemijoinKDiffMatchSerial(t *testing.T) {
	b := parallelTestBAT("int").Mark(0) // [oid-head, oid-tail], heads dense oids
	other := NewBAT(OIDT, Void)
	for i := 0; i < b.Len(); i += 2 {
		other.MustInsert(NewOID(OID(i)), VoidValue())
	}
	var semiS, semiP, diffS, diffP *BAT
	withWorkers(t, 1, func() {
		semiS, _ = b.Semijoin(other)
		diffS, _ = b.KDiff(other)
	})
	withWorkers(t, 4, func() {
		semiP, _ = b.Semijoin(other)
		diffP, _ = b.KDiff(other)
	})
	requireBATsEqual(t, semiP, semiS, "semijoin")
	requireBATsEqual(t, diffP, diffS, "kdiff")
}

func TestParallelAggregatesMatchSerial(t *testing.T) {
	b := parallelTestBAT("int")
	type agg struct {
		sum      float64
		max, min Value
		argmax   Value
		argmin   Value
	}
	measure := func() agg {
		var a agg
		a.sum, _ = b.Sum()
		a.max, _ = b.Max()
		a.min, _ = b.Min()
		a.argmax, _ = b.ArgMax()
		a.argmin, _ = b.ArgMin()
		return a
	}
	var serial, parallel agg
	withWorkers(t, 1, func() { serial = measure() })
	withWorkers(t, 4, func() { parallel = measure() })
	if parallel.sum != serial.sum {
		t.Fatalf("sum = %v, want %v", parallel.sum, serial.sum)
	}
	for _, pair := range [][2]Value{
		{parallel.max, serial.max}, {parallel.min, serial.min},
		{parallel.argmax, serial.argmax}, {parallel.argmin, serial.argmin},
	} {
		if !Equal(pair[0], pair[1]) {
			t.Fatalf("aggregate %v, want %v", pair[0], pair[1])
		}
	}
}

// refGroupFolds is the grouped-aggregation oracle: one boxed
// sequential pass keyed on Value.String(), groups in first-occurrence
// order, returning the count, sum, min, max and avg BATs by op name.
func refGroupFolds(b *BAT) map[string]*BAT {
	type group struct {
		head          Value
		n             int64
		sum, min, max float64
	}
	var groups []group
	slot := map[string]int{}
	for i := 0; i < b.Len(); i++ {
		h := b.Head(i)
		g, ok := slot[h.String()]
		if !ok {
			g = len(groups)
			slot[h.String()] = g
			groups = append(groups, group{head: h, min: math.Inf(1), max: math.Inf(-1)})
		}
		x := b.Tail(i).Float()
		gr := &groups[g]
		gr.n++
		gr.sum += x
		gr.min = math.Min(gr.min, x)
		gr.max = math.Max(gr.max, x)
	}
	ht := materialType(b.HeadType())
	out := map[string]*BAT{"count": NewBAT(ht, IntT)}
	for _, op := range []string{"sum", "min", "max", "avg"} {
		out[op] = NewBAT(ht, FloatT)
	}
	for _, g := range groups {
		out["count"].MustInsert(g.head, NewInt(g.n))
		out["sum"].MustInsert(g.head, NewFloat(g.sum))
		out["min"].MustInsert(g.head, NewFloat(g.min))
		out["max"].MustInsert(g.head, NewFloat(g.max))
		out["avg"].MustInsert(g.head, NewFloat(g.sum/float64(g.n)))
	}
	return out
}

// groupFixture builds an n-row [head, tail] BAT with heads of type ht
// drawn from a few dozen distinct values — NaN, 0 and -0 among the
// float ones — and int tails, or fractional dbl tails with NaN and
// ±0 sprinkled in when fracTails is set.
func groupFixture(rng *rand.Rand, ht Type, n int, fracTails bool) *BAT {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, 1e300, math.Inf(1)}
	tt := IntT
	if fracTails {
		tt = FloatT
	}
	b := NewBATCap(ht, tt, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(37)
		var h Value
		switch ht {
		case Void:
			h = VoidValue()
		case IntT:
			h = NewInt(int64(r - 18))
		case OIDT:
			h = NewOID(OID(r))
		case BoolT:
			h = NewBool(r%2 == 0)
		case StrT:
			h = NewStr(fmt.Sprintf("k%02d", r))
		case FloatT:
			h = NewFloat(floats[r%len(floats)])
		}
		t := NewInt(rng.Int63n(2001) - 1000)
		if fracTails {
			switch x := rng.Intn(500); {
			case x == 0:
				t = NewFloat(math.NaN())
			case x < 3:
				t = NewFloat(math.Copysign(0, float64(x-2)))
			default:
				t = NewFloat(rng.Float64()*200 - 100)
			}
		}
		b.MustInsert(h, t)
	}
	return b
}

// TestGroupedAggregationDeterministic checks every grouped op, and
// Histogram, against the boxed oracle at pool widths 1, 4 and 8, for
// every head type the fold keys differently, below and above
// ParallelThreshold. Groups, counts, minima, maxima and integer-valued
// sums match exactly at every width; fractional float sums (and the
// averages built on them) match exactly at width 1, where the fold is
// one sequential pass, and to rounding at wider pools, which add
// per-worker partial sums.
func TestGroupedAggregationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ops := []struct {
		name string
		fn   func(*BAT) (*BAT, error)
	}{
		{"count", (*BAT).GroupCount},
		{"sum", (*BAT).GroupSum},
		{"min", (*BAT).GroupMin},
		{"max", (*BAT).GroupMax},
		{"avg", (*BAT).GroupAvg},
	}
	for _, ht := range []Type{IntT, OIDT, BoolT, Void, StrT, FloatT} {
		for _, n := range []int{1000, ParallelThreshold + MorselSize/2 + 7} {
			for _, frac := range []bool{false, true} {
				b := groupFixture(rng, ht, n, frac)
				want := refGroupFolds(b)
				for _, width := range []int{1, 4, 8} {
					name := fmt.Sprintf("%v heads, %d rows, frac tails %v, width %d", ht, n, frac, width)
					withWorkers(t, width, func() {
						for _, op := range ops {
							got, err := op.fn(b)
							if err != nil {
								t.Fatalf("%s: %s: %v", name, op.name, err)
							}
							exact := !frac || width == 1 || op.name == "count" || op.name == "min" || op.name == "max"
							requireGroupsMatch(t, got, want[op.name], exact, name+": "+op.name)
						}
						requireGroupsMatch(t, b.Reverse().Histogram(), want["count"], true, name+": histogram")
					})
				}
			}
		}
	}
}

// requireGroupsMatch compares grouped results row by row. Floats
// compare by rendered value, which tells NaN apart from numbers and -0
// from 0; unless exact is set, tails need only agree to a relative
// 1e-9.
func requireGroupsMatch(t *testing.T, got, want *BAT, exact bool, what string) {
	t.Helper()
	if got.Len() != want.Len() || got.HeadType() != want.HeadType() || got.TailType() != want.TailType() {
		t.Fatalf("%s: [%v,%v] x %d, want [%v,%v] x %d", what,
			got.HeadType(), got.TailType(), got.Len(), want.HeadType(), want.TailType(), want.Len())
	}
	same := func(a, b Value) bool {
		if a.Typ == FloatT {
			return a.String() == b.String()
		}
		return Equal(a, b)
	}
	for i := 0; i < got.Len(); i++ {
		gh, wh, gt, wt := got.Head(i), want.Head(i), got.Tail(i), want.Tail(i)
		near := !exact && math.Abs(gt.F-wt.F) <= 1e-9*math.Max(math.Abs(wt.F), 1)
		if !same(gh, wh) || !same(gt, wt) && !near {
			t.Fatalf("%s: row %d = [%s,%s], want [%s,%s]", what, i, gh, gt, wh, wt)
		}
	}
}

func TestParallelSumLargeFloatExact(t *testing.T) {
	// Integer-valued floats sum exactly, so parallel == serial bitwise.
	b := parallelTestBAT("float")
	var serial, parallel float64
	withWorkers(t, 1, func() { serial, _ = b.Sum() })
	withWorkers(t, 7, func() { parallel, _ = b.Sum() })
	if serial != parallel {
		t.Fatalf("parallel sum %v != serial %v", parallel, serial)
	}
}
