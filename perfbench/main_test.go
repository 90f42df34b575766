package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// small is the population and tick floor of the tests' runs.
var small = sizes{objects: 3000, minTicks: 20}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			procs := runtime.GOMAXPROCS(0)
			res, prov, err := run(options{workload: w.name, seed: 7, seconds: 0.05, trace: trace, size: small})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			// The rounds run at the workload's GOMAXPROCS, and the run
			// gives the process its own back.
			if w.procs > 0 && w.procs < procs && !slices.ContainsFunc(prov, func(l string) bool {
				return strings.Contains(l, fmt.Sprintf(" GOMAXPROCS=%d ", w.procs))
			}) {
				t.Errorf("%s trace=%t: provenance does not report GOMAXPROCS=%d: %v", w.name, trace, w.procs, prov)
			}
			if got := runtime.GOMAXPROCS(0); got != procs {
				t.Errorf("%s trace=%t: GOMAXPROCS %d after the run, %d before", w.name, trace, got, procs)
			}
			// The service's straddle check fails on an engine that
			// publishes region by region; correct stays true while every
			// failure is that check's.
			if !res.Correct || (!w.service && res.Failed != 0) || res.Attempted < 2 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%v", w.name, trace, res.Correct, res.Failed, res.Attempted, prov)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(table))
			}
			for _, d := range table {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v", w.name, trace, d.name, m)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				for _, name := range []string{"workload.gen_ms", "index.query_ns", "index.queries", "index.moves", "index.memory_mb", "trace.plain_tick_ms", "trace.traced_tick_ms"} {
					if !(res.Metrics[name].Value > 0) {
						t.Errorf("%s: per-layer %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				if w.service {
					for _, name := range []string{"shard.query_ns", "shard.fanout", "shard.region_imbalance", "epoch.apply_ms", "epoch.epochs", "tune.calibrate_ms"} {
						if !(res.Metrics[name].Value > 0) {
							t.Errorf("%s: per-layer %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
						}
					}
					// At most one publish per region per tick.
					if e := res.Metrics["epoch.epochs"].Value; e > serviceSide*serviceSide {
						t.Errorf("%s: %v epochs per tick from %d regions", w.name, e, serviceSide*serviceSide)
					}
				}
			}
		}
	}
}

// dropping answers like its stack except that every n-th non-empty query
// loses its last result: the fault the oracle must catch.
type dropping[P, M any] struct {
	seqStack[P, M]
	every, n int
}

func (d *dropping[P, M]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	n0 := len(buf)
	buf = d.seqStack.QueryAppend(r, buf)
	if len(buf) > n0 {
		if d.n++; d.n%d.every == 0 {
			buf = buf[:len(buf)-1]
		}
	}
	return buf
}

// driveRounds runs rounds of ticks through r, alternating plain and
// traced rounds when traced is set.
func driveRounds(r runner, rec *recorder, rounds, ticks int, traced bool) {
	for i := 0; i < rounds; i++ {
		rec.startRound(i, traced && i%2 == 1)
		r.round(ticks)
	}
}

func TestOracleCatchesDroppedResults(t *testing.T) {
	t.Run("points", func(t *testing.T) {
		cfg := pointsConfig(5, small)
		rec := &recorder{}
		idx := &dropping[geom.Point, geom.Move]{seqStack: grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints), every: 500}
		r := newPointsRunner(cfg, pointSource{Source: workload.MustNewGenerator(cfg), rec: rec}, idx, rec)
		driveRounds(r, rec, 4, 3, true)
		if v := r.verify(); v.attempted != 4 || v.failed == 0 {
			t.Fatalf("attempted %d failed %d: the oracle missed dropped results", v.attempted, v.failed)
		}
	})
	t.Run("boxes", func(t *testing.T) {
		cfg := gaussianBoxConfig(5, small)
		rec := &recorder{}
		idx := &dropping[geom.Rect, geom.BoxMove]{seqStack: grid.MustNewBoxGrid2L(pinnedCPS, cfg.Bounds(), cfg.NumPoints), every: 200}
		r := newBoxesRunner(cfg, boxSource{BoxSource: workload.MustNewBoxGenerator(cfg), rec: rec}, idx, rec)
		driveRounds(r, rec, 4, 3, true)
		if v := r.verify(); v.attempted != 4 || v.failed == 0 {
			t.Fatalf("attempted %d failed %d: the oracle missed dropped results", v.attempted, v.failed)
		}
	})
}

// serviceDropping loses the last result of every n-th non-empty query.
type serviceDropping struct {
	serviceStack
	every, n int
}

func (d *serviceDropping) QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, epoch, digest uint64)) []uint32 {
	n0 := len(buf)
	buf = d.serviceStack.QueryAppend(r, buf, observe)
	if len(buf) > n0 {
		if d.n++; d.n%d.every == 0 {
			buf = buf[:len(buf)-1]
		}
	}
	return buf
}

// stale publishes every batch one tick late, so queries answer from the
// state before the previous tick's moves.
type stale struct {
	serviceStack
	held []geom.BoxMove
}

func (s *stale) ApplyBatch(moves []geom.BoxMove) error {
	prev := s.held
	s.held = append([]geom.BoxMove(nil), moves...)
	return s.serviceStack.ApplyBatch(prev)
}

func newTestService(t *testing.T, wrap func(serviceStack) serviceStack) (*serviceRunner, *recorder) {
	t.Helper()
	cfg := serviceConfig(9, small)
	p := core.ParamsFor(cfg.Config)
	p.Shards = serviceSide
	rec := &recorder{tickAtQueriers: true}
	engine := func(p core.Params) serviceStack { return wrap(shard.NewBoxConcurrent(p, epoch.Options{})) }
	return newServiceRunner(cfg, p, workload.MustNewBoxGenerator(cfg), engine, rec), rec
}

func TestServiceCheckCatchesFaults(t *testing.T) {
	cases := map[string]func(serviceStack) serviceStack{
		"dropping": func(x serviceStack) serviceStack { return &serviceDropping{serviceStack: x, every: 50} },
		"stale":    func(x serviceStack) serviceStack { return &stale{serviceStack: x} },
	}
	for name, wrap := range cases {
		t.Run(name, func(t *testing.T) {
			r, rec := newTestService(t, wrap)
			driveRounds(r, rec, 3, 4, false)
			v := r.verify()
			if v.failed == v.known {
				t.Fatalf("attempted %d, no check but the straddle check failed: %v", v.attempted, v.notes)
			}
			t.Logf("%d of %d checks failed, first: %s", v.failed, v.attempted, v.notes[0])
		})
	}
	t.Run("sound", func(t *testing.T) {
		r, rec := newTestService(t, func(x serviceStack) serviceStack { return x })
		const rounds, ticks = 3, 4
		driveRounds(r, rec, rounds, ticks, true)
		v := r.verify()
		// Every round makes the same operations: the consistency
		// counters, one per tick, the sweep and the straddle check.
		if v.failed != v.known || v.attempted != rounds*(ticks+3) {
			t.Fatalf("attempted %d failed %d (%d straddle): %v", v.attempted, v.failed, v.known, v.notes)
		}
		t.Logf("straddle check failed in %d of %d rounds: %v", v.known, rounds, v.notes)
	})
}

// atomicEngine answers every query from one state, the one live when
// the query starts, and reports four regions to observe afterwards; dup
// repeats the first result.
type atomicEngine struct {
	mu    sync.Mutex
	rects []geom.Rect
	dup   bool
}

func (e *atomicEngine) Build(rects []geom.Rect) { e.rects = slices.Clone(rects) }

func (e *atomicEngine) ApplyBatch(moves []geom.BoxMove) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range moves {
		e.rects[m.ID] = m.New
	}
	return nil
}

func (e *atomicEngine) QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, epoch, digest uint64)) []uint32 {
	e.mu.Lock()
	ids := bruteQuery(e.rects, r)
	e.mu.Unlock()
	buf = append(buf, ids...)
	if e.dup && len(ids) > 0 {
		buf = append(buf, ids[0])
	}
	for sid := 0; sid < serviceSide*serviceSide; sid++ {
		observe(sid, 0, 0)
	}
	return buf
}

func TestStraddleCheck(t *testing.T) {
	bounds := workload.DefaultUniformBoxes().Bounds()
	pre, moves, q := straddleScene(bounds)
	if a := bruteQuery(pre, q); len(a) != len(pre)-1 {
		t.Fatalf("window meets %d of %d scene boxes, want all but one", len(a), len(pre))
	}
	for _, m := range moves {
		if !q.Intersects(m.Old) || !q.Intersects(m.New) {
			t.Fatalf("move %+v leaves the window", m)
		}
	}
	if msg := straddle(func(int) straddleEngine { return &atomicEngine{} }, bounds); msg != "" {
		t.Errorf("atomic engine: %s", msg)
	}
	// A duplicated id in an answer that spans a publish fails the check.
	if msg := straddle(func(int) straddleEngine { return &atomicEngine{dup: true} }, bounds); msg == "" {
		t.Error("a duplicated id passed the check")
	}
	// The program's engine, as the service workload runs it.
	p := core.ParamsFor(serviceConfig(1, small).Config)
	p.Shards = serviceSide
	msg := straddle(func(n int) straddleEngine {
		p.NumPoints = n
		return shard.NewBoxConcurrent(p, epoch.Options{})
	}, bounds)
	t.Logf("shard.BoxConcurrent: %q", msg)
}

func TestTracedAndPlainDigestsAgree(t *testing.T) {
	type start func(rec *recorder) *seqRunner
	starts := map[string]start{
		"points": func(rec *recorder) *seqRunner {
			cfg := pointsConfig(11, small)
			return newPointsRunner(cfg, pointSource{Source: workload.MustNewGenerator(cfg), rec: rec}, grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints), rec)
		},
		"boxes": func(rec *recorder) *seqRunner {
			cfg := gaussianBoxConfig(11, small)
			return newBoxesRunner(cfg, boxSource{BoxSource: workload.MustNewBoxGenerator(cfg), rec: rec}, grid.MustNewBoxGrid2L(pinnedCPS, cfg.Bounds(), cfg.NumPoints), rec)
		},
	}
	for name, st := range starts {
		var digests [2][]seqRound
		for i, traced := range []bool{false, true} {
			rec := &recorder{}
			r := st(rec)
			for k := 0; k < 3; k++ {
				rec.startRound(k, traced)
				r.round(4)
			}
			digests[i] = r.rounds
		}
		if !slices.Equal(digests[0], digests[1]) {
			t.Errorf("%s: plain %+v, traced %+v", name, digests[0], digests[1])
		}
	}
}

// optional lists every optional capability a driver or the benchmark
// probes for by type assertion.
var optional = []reflect.Type{
	reflect.TypeFor[core.ParallelBuilder](),
	reflect.TypeFor[core.BoxParallelBuilder](),
	reflect.TypeFor[core.BatchUpdater](),
	reflect.TypeFor[core.BoxBatchUpdater](),
	reflect.TypeFor[core.QueryAppender](),
	reflect.TypeFor[core.BatchQuerier](),
	reflect.TypeFor[core.MemoryReporter](),
	reflect.TypeFor[core.Counter](),
	reflect.TypeFor[core.InvariantChecker](),
	reflect.TypeFor[core.ShardedEpochQueryAppender](),
	reflect.TypeFor[core.ShardedEpochBoxIndex](),
	reflect.TypeFor[obs.Instrumentable](),
	reflect.TypeFor[epoch.RectOwner](),
}

func TestWrappersForwardExactlyTheWrappedCapabilities(t *testing.T) {
	bounds := workload.DefaultUniform().Bounds()
	p := core.Params{Bounds: bounds, NumPoints: 10, Shards: serviceSide}
	pts := grid.MustNew(grid.CSR(), bounds, 10)
	boxes := grid.MustNewBoxGrid2L(pinnedCPS, bounds, 10)
	svc := shard.NewBoxConcurrent(p, epoch.Options{})
	pairs := []struct {
		inner, wrapper any
	}{
		{pts, &tracedIndex[geom.Point, geom.Move]{seqStack: pts}},
		{boxes, &tracedIndex[geom.Rect, geom.BoxMove]{seqStack: boxes}},
		{svc, &probe{serviceStack: svc}},
	}
	for _, pr := range pairs {
		in, wr := reflect.TypeOf(pr.inner), reflect.TypeOf(pr.wrapper)
		for _, c := range optional {
			if in.Implements(c) != wr.Implements(c) {
				t.Errorf("%v implements %v: %t, its wrapper %v: %t", in, c, in.Implements(c), wr, wr.Implements(c))
			}
		}
	}
}

func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %+v, command %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: json %d/%d, command %d/%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: json %+v, command %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: json %+v, command %+v", i, m, d)
		}
	}
}

func TestCellIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := geom.Rect{MaxX: 1000, MaxY: 1000}
	for _, extent := range []float32{0, 40} {
		rects := make([]geom.Rect, 2000)
		for i := range rects {
			x, y := float32(rng.Intn(1100)-50), float32(rng.Intn(1100)-50)
			w, h := float32(rng.Intn(int(extent)+1)), float32(rng.Intn(int(extent)+1))
			rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		}
		var o cellIndex
		o.build(rects, bounds, 37)
		for k := 0; k < 500; k++ {
			// Integer coordinates make edge contacts common.
			x, y := float32(rng.Intn(1100)-50), float32(rng.Intn(1100)-50)
			q := geom.Rect{MinX: x, MinY: y, MaxX: x + float32(rng.Intn(120)), MaxY: y + float32(rng.Intn(120))}
			var want []uint32
			for i, r := range rects {
				if q.Intersects(r) {
					want = append(want, uint32(i))
				}
			}
			if got := o.appendQuery(q, nil); !slices.Equal(got, want) {
				t.Fatalf("extent %g query %v: got %v want %v", extent, q, got, want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if p := nearestRank([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
}

func TestBracketed(t *testing.T) {
	a, c := []uint32{1, 2, 3}, []uint32{2, 3, 4}
	for _, tc := range []struct {
		got  []uint32
		want bool
	}{
		{[]uint32{1, 2, 3}, true},
		{[]uint32{2, 3}, true},
		{[]uint32{1, 2, 3, 4}, true},
		{[]uint32{2}, false},          // 3 is in both states
		{[]uint32{2, 3, 5}, false},    // 5 is in neither
		{[]uint32{2, 2, 3, 4}, false}, // duplicate
	} {
		if got := bracketed(tc.got, a, c); got != tc.want {
			t.Errorf("bracketed(%v) = %t", tc.got, got)
		}
	}
}
