package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tune"
	"repro/internal/workload"
)

// pinnedCPS is the grid granularity every workload pins (the paper's
// tuned cells per side).
const pinnedCPS = 64

// serviceSide is the service workload's explicit region-lattice side:
// 2 x 2 regions, so the shard-count ladder never runs.
const serviceSide = 2

// serviceProcs is the service workload's GOMAXPROCS. With one P the
// reader and the apply still overlap, interleaved by the Go scheduler,
// and the process keeps one CPU busy, as the sequential workloads do.
// With two, the reader and ApplyBatch's two region workers (it forks
// GOMAXPROCS of them) are three runnable goroutines on the two CPUs of
// the machine the benchmark was tuned on, a host shared with other
// tenants: over five runs the spread of update_ms was 0.33 with two Ps
// and 0.14 with one (README, "Workloads").
const serviceProcs = 1

// sizes scales a run; tests shrink it.
type sizes struct {
	objects  int // population (Table 1 default 50,000)
	minTicks int // measured ticks a run needs before it may stop
}

var fullSize = sizes{objects: workload.DefaultNumPoints, minTicks: 100}

// workloadDef is one benchmark workload: why it exists, how many ticks
// one driver call runs, and how to set it up.
type workloadDef struct {
	name, why  string
	roundTicks int
	// service workloads build inside the driver call, so set-up ends at
	// the first tick rather than when the index is constructed.
	service bool
	// procs, when set, is the GOMAXPROCS the workload runs at, set-up
	// included.
	procs int
	start func(seed uint64, sz sizes, rec *recorder) (runner, error)
}

// verdict is what verify found: the operations checked, those that
// failed, how many of the failures are the workload's known-fault
// operation, and a note per failure.
type verdict struct {
	attempted, failed, known int
	notes                    []string
}

// runner drives one workload's rounds and checks them afterwards.
type runner interface {
	// round makes one driver call of the given number of ticks.
	round(ticks int)
	// verify replays the workload against the oracle.
	verify() verdict
	// layers adds the workload's own per-layer metrics of the traced
	// rounds.
	layers(m metrics, traced []tickRec, clockPair float64)
	// stack describes the pinned stack and its input.
	stack() string
	// provenance describes what the run observed, after verify.
	provenance() []string
}

var workloads = []workloadDef{
	{
		name:       "points-uniform",
		why:        "paper's headline run: uniform points on grid-csr via core.Run; the query phase is ~75% of a tick",
		roundTicks: 25,
		start:      startPointsUniform,
	},
	{
		name:       "boxes-gaussian-updates",
		why:        "hotspot MBRs, 100% updaters, 10% queriers on boxgrid-2l via core.RunBoxes; update and build dominate",
		roundTicks: 10,
		start:      startBoxesGaussian,
	},
	{
		name:       "service-boxes-sharded",
		why:        "uniform MBRs on a 2x2 shard.NewBoxConcurrent via core.RunBoxesConcurrentSharded at GOMAXPROCS 1; epoch, shard and tune run",
		roundTicks: 16,
		service:    true,
		procs:      serviceProcs,
		start:      startService,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// seqRound is one sequential driver call and the join it reported.
type seqRound struct {
	ticks int
	pairs int64
	hash  uint64
}

// seqRunner runs a sequential workload: core.Run or core.RunBoxes over
// a pinned grid, untraced or through tracedIndex.
type seqRunner struct {
	rec    *recorder
	desc   string
	drive  func(traced bool, ticks int) *core.Result
	replay func() replayer
	bounds geom.Rect
	cell   float64
	memory func() int64
	rounds []seqRound
}

func (s *seqRunner) round(ticks int) {
	res := s.drive(s.rec.traced, ticks)
	s.rounds = append(s.rounds, seqRound{ticks: ticks, pairs: res.Pairs, hash: res.Hash})
}

func (s *seqRunner) verify() verdict {
	rp := s.replay()
	var o cellIndex
	var snap []geom.Rect
	var notes []string
	for i, r := range s.rounds {
		var pairs int64
		var hash uint64
		for t := 0; t < r.ticks; t++ {
			snap = rp.snapshot(snap)
			o.build(snap, s.bounds, s.cell)
			pairs, hash = joinDigest(&o, rp, pairs, hash)
			rp.advance()
		}
		if pairs != r.pairs || hash != r.hash {
			notes = append(notes, fmt.Sprintf("round %d: driver %d pairs digest %#x, oracle %d pairs digest %#x",
				i, r.pairs, r.hash, pairs, hash))
		}
	}
	return verdict{attempted: len(s.rounds), failed: len(notes), notes: notes}
}

func (s *seqRunner) layers(m metrics, traced []tickRec, clockPair float64) {
	var build, gen, self []float64
	var idxUpd time.Duration
	var moves, queries, results, qTimed int64
	var qNs time.Duration
	for _, t := range traced {
		idxUpd += t.idxUpdate
		moves += t.moves
		queries += t.queries
		results += t.results
		qTimed += t.qTimed
		qNs += t.qTimedNs
	}
	qNet := netQueryNs(qNs, qTimed, clockPair)
	for _, t := range traced {
		build = append(build, durMs(t.build))
		gen = append(gen, durMs(t.gen))
		idx := t.build + t.idxUpdate + time.Duration(float64(t.queries)*qNet)
		self = append(self, durMs(t.wall-t.gen-idx))
	}
	n := float64(len(traced))
	m.set("workload.gen_ms", stats.Median(gen))
	m.set("core.self_ms", stats.Median(self))
	m.set("index.build_ms", stats.Median(build))
	m.set("index.update_ns", perOp(durNs(idxUpd), moves))
	m.set("index.moves", float64(moves)/n)
	m.set("index.query_ns", qNet)
	m.set("index.results_per_query", perOp(float64(results), queries))
	m.set("index.queries", float64(queries)/n)
	m.set("index.memory_mb", float64(s.memory())/1e6)
}

func (s *seqRunner) stack() string { return s.desc }

func (s *seqRunner) provenance() []string {
	return []string{"shard_side=0 (unsharded; no shard, epoch or tune layer on this stack)"}
}

// netQueryNs is the mean timed query with one clock-read pair taken off.
func netQueryNs(total time.Duration, n int64, clockPair float64) float64 {
	if n == 0 {
		return 0
	}
	return max(0, durNs(total)/float64(n)-clockPair)
}

func perOp(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// unbounded is the tick count handed to the generators: rounds, not
// the workload, decide how many ticks run.
const unbounded = math.MaxInt32

func pointsConfig(seed uint64, sz sizes) workload.Config {
	cfg := workload.DefaultUniform()
	cfg.Seed, cfg.Ticks, cfg.NumPoints = seed, unbounded, sz.objects
	return cfg
}

func startPointsUniform(seed uint64, sz sizes, rec *recorder) (runner, error) {
	cfg := pointsConfig(seed, sz)
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	gcfg := grid.CSR()
	gcfg.CPS = pinnedCPS
	idx, err := grid.New(gcfg, cfg.Bounds(), cfg.NumPoints)
	if err != nil {
		return nil, err
	}
	return newPointsRunner(cfg, pointSource{Source: gen, rec: rec}, idx, rec), nil
}

// newPointsRunner binds a point stack to the points-uniform driver loop;
// tests pass faulty stacks through it.
func newPointsRunner(cfg workload.Config, src pointSource, idx seqStack[geom.Point, geom.Move], rec *recorder) *seqRunner {
	traced := &tracedIndex[geom.Point, geom.Move]{seqStack: idx, rec: rec}
	return &seqRunner{
		rec:  rec,
		desc: fmt.Sprintf("stack=grid-csr cps=%d driver=core.Run kernel=auto objects=%d queriers=%g updaters=%g query_side=%g", pinnedCPS, cfg.NumPoints, cfg.Queriers, cfg.Updaters, cfg.QuerySize),
		drive: func(tr bool, ticks int) *core.Result {
			var ix core.Index = idx
			if tr {
				ix = traced
			}
			return core.Run(ix, src, core.Options{Ticks: ticks})
		},
		replay: func() replayer { return pointReplay{workload.MustNewGenerator(cfg)} },
		bounds: cfg.Bounds(),
		cell:   float64(cfg.QuerySize) / 2,
		memory: idx.MemoryBytes,
	}
}

func gaussianBoxConfig(seed uint64, sz sizes) workload.BoxConfig {
	cfg := workload.DefaultGaussianBoxes()
	cfg.Seed, cfg.Ticks, cfg.NumPoints = seed, unbounded, sz.objects
	cfg.Updaters, cfg.Queriers = 1, 0.1
	return cfg
}

func startBoxesGaussian(seed uint64, sz sizes, rec *recorder) (runner, error) {
	cfg := gaussianBoxConfig(seed, sz)
	gen, err := workload.NewBoxGenerator(cfg)
	if err != nil {
		return nil, err
	}
	idx, err := grid.NewBoxGrid2L(pinnedCPS, cfg.Bounds(), cfg.NumPoints)
	if err != nil {
		return nil, err
	}
	return newBoxesRunner(cfg, boxSource{BoxSource: gen, rec: rec}, idx, rec), nil
}

func newBoxesRunner(cfg workload.BoxConfig, src boxSource, idx seqStack[geom.Rect, geom.BoxMove], rec *recorder) *seqRunner {
	traced := &tracedIndex[geom.Rect, geom.BoxMove]{seqStack: idx, rec: rec}
	return &seqRunner{
		rec:  rec,
		desc: fmt.Sprintf("stack=boxgrid-2l cps=%d driver=core.RunBoxes kernel=auto objects=%d queriers=%g updaters=%g hotspots=%d extent=%s sides=[%g,%g]", pinnedCPS, cfg.NumPoints, cfg.Queriers, cfg.Updaters, cfg.Hotspots, cfg.Extent, cfg.MinSide, cfg.MaxSide),
		drive: func(tr bool, ticks int) *core.Result {
			var ix core.BoxIndex = idx
			if tr {
				ix = traced
			}
			return core.RunBoxes(ix, src, core.Options{Ticks: ticks})
		},
		replay: func() replayer { return boxReplay{workload.MustNewBoxGenerator(cfg)} },
		bounds: cfg.Bounds(),
		cell:   float64(cfg.QuerySize) / 2,
		memory: idx.MemoryBytes,
	}
}

// serviceRound is one sharded concurrent driver call: its consistency
// counters, the epoch stats after it, and the quiescent sweep's digest.
type serviceRound struct {
	firstTick, ticks int
	traced           bool
	violations       int64
	failedTicks      int
	stats            core.EpochStats
	sweepPairs       int64
	sweepHash        uint64
}

// serviceRunner runs service-boxes-sharded.
type serviceRunner struct {
	rec       *recorder
	cfg       workload.BoxConfig
	params    core.Params
	gen       *workload.BoxGenerator
	src       boxSource
	probe     *probe
	engine    func(objects int) straddleEngine
	calibrate time.Duration
	rounds    []serviceRound

	// Filled by verify: each round's per-region choices and imbalance.
	choices   [][]string
	imbalance []float64
	// mixed counts sampled queries whose shards showed different sides
	// of a publish; mixedBroken describes those that broke the
	// per-object bracket.
	mixed       int
	mixedBroken []string
}

func serviceConfig(seed uint64, sz sizes) workload.BoxConfig {
	cfg := workload.DefaultUniformBoxes()
	cfg.Seed, cfg.Ticks, cfg.NumPoints = seed, unbounded, sz.objects
	return cfg
}

func startService(seed uint64, sz sizes, rec *recorder) (runner, error) {
	cfg := serviceConfig(seed, sz)
	gen, err := workload.NewBoxGenerator(cfg)
	if err != nil {
		return nil, err
	}
	p := core.ParamsFor(cfg.Config)
	p.Shards = serviceSide
	a := time.Now()
	tune.Calibrate()
	cal := time.Since(a)
	s := newServiceRunner(cfg, p, gen, func(p core.Params) serviceStack {
		return shard.NewBoxConcurrent(p, epoch.Options{})
	}, rec)
	s.calibrate = cal
	return s, nil
}

// newServiceRunner binds the service driver loop to engines made by
// newEngine: one for the run and a fresh one for each round's straddle
// check. Tests pass faulty engines through it.
func newServiceRunner(cfg workload.BoxConfig, p core.Params, gen *workload.BoxGenerator, newEngine func(core.Params) serviceStack, rec *recorder) *serviceRunner {
	return &serviceRunner{
		rec:    rec,
		cfg:    cfg,
		params: p,
		gen:    gen,
		src:    boxSource{BoxSource: gen, rec: rec},
		probe: &probe{
			serviceStack: newEngine(p),
			rec:          rec,
			sampleOn:     cfg.Seed*0x9e3779b97f4a7c15 + 1,
			lat:          fanoutLattice{side: serviceSide, bounds: cfg.Bounds()},
			// Set-up probes leave before their first tick; the memory
			// measurement's collections would only lengthen their set-up.
			measureMem: rec.ready == nil,
		},
		engine: func(n int) straddleEngine {
			q := p
			q.NumPoints = n
			return newEngine(q)
		},
	}
}

func noObserve(int, uint64, uint64) {}

func (s *serviceRunner) round(ticks int) {
	first := s.rec.tickNo
	res := core.RunBoxesConcurrentSharded(s.probe, s.src, core.ConcurrentOptions{Ticks: ticks, Readers: 1})
	inner := s.probe.serviceStack
	pairs, hash := sweepDigest(s.cfg.NumPoints, s.gen.QueryRect, func(r geom.Rect, buf []uint32) []uint32 {
		return inner.QueryAppend(r, buf, noObserve)
	})
	s.rounds = append(s.rounds, serviceRound{
		firstTick:   first,
		ticks:       res.Ticks,
		traced:      s.rec.traced,
		violations:  res.Violations,
		failedTicks: res.FailedTicks,
		stats:       res.Stats,
		sweepPairs:  pairs,
		sweepHash:   hash,
	})
}

// verify checks every round with the same operations, so the failed
// share does not depend on the seed or the run's length: the driver's
// consistency counters, one operation per tick for that tick's sampled
// queries, the quiescent sweep, and the straddle check on a fresh
// engine. The straddle check is the known fault: it fails in every
// round on today's engine (README, "Faults found").
func (s *serviceRunner) verify() verdict {
	var v verdict
	fail := func(format string, args ...any) {
		v.failed++
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
	samples := map[int][]querySample{}
	for _, q := range s.probe.samples {
		samples[q.tick] = append(samples[q.tick], q)
	}
	epochs := map[int]tickEpochs{}
	for _, e := range s.probe.epochs {
		epochs[e.tick] = e
	}

	rp := boxReplay{workload.MustNewBoxGenerator(s.cfg)}
	b := s.cfg.Bounds()
	cell := float64(s.cfg.QuerySize) / 2
	pre, post := &cellIndex{}, &cellIndex{}
	snap := rp.snapshot(nil)
	pre.build(snap, b, cell)
	for i, r := range s.rounds {
		s.regionsAt(snap)
		v.attempted++
		if r.violations != 0 || r.failedTicks != 0 {
			fail("round %d: %d epoch violations, %d failed ticks", i, r.violations, r.failedTicks)
		}
		for t := r.firstTick + 1; t <= r.firstTick+r.ticks; t++ {
			// The replay skips the querier draw: the generator keeps the
			// query stream apart from the movement stream, and the
			// samples carry their own windows.
			rp.advance()
			snap = rp.snapshot(snap)
			post.build(snap, b, cell)
			v.attempted++
			if msg := s.checkTick(t, samples[t], epochs, pre, post); msg != "" {
				fail("tick %d: %s", t, msg)
			}
			pre, post = post, pre
		}
		v.attempted++
		pairs, hash := sweepDigest(s.cfg.NumPoints, rp.queryRect, pre.appendQuery)
		if pairs != r.sweepPairs || hash != r.sweepHash {
			fail("round %d sweep: engine %d pairs digest %#x, oracle %d pairs digest %#x",
				i, r.sweepPairs, r.sweepHash, pairs, hash)
		}
		v.attempted++
		if msg := straddle(s.engine, b); msg != "" {
			v.known++
			fail("round %d straddle: %s", i, msg)
		}
	}
	return v
}

// checkTick checks one tick's sampled queries against the oracle on the
// states before (pre) and after (post) the tick's publish and returns
// "" when every counted sample holds. Samples whose shards showed
// different sides of the publish are tallied, not checked here: whether
// a query lands between two shards' publishes depends on scheduling,
// and the straddle check covers that case on fixed input.
func (s *serviceRunner) checkTick(t int, qs []querySample, epochs map[int]tickEpochs, pre, post *cellIndex) string {
	if len(qs) == 0 {
		return ""
	}
	ep, ok := epochs[t]
	if !ok {
		return "no publish recorded"
	}
	var a, c []uint32
	bad, first := 0, ""
	for _, q := range qs {
		a = pre.appendQuery(q.rect, a[:0])
		c = post.appendQuery(q.rect, c[:0])
		mixed, msg := checkSample(q, ep, a, c)
		switch {
		case mixed:
			s.mixed++
			if msg != "" {
				s.mixedBroken = append(s.mixedBroken, fmt.Sprintf("tick %d query %v: %s", t, q.rect, msg))
			}
		case msg != "":
			if bad++; bad == 1 {
				first = fmt.Sprintf("query %v: %s", q.rect, msg)
			}
		}
	}
	if bad == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d sampled queries differ from the oracle, first %s", bad, len(qs), first)
}

// regionsAt records the per-region tune choices and the region
// imbalance at snap. The imbalance counts, per region, the boxes whose
// lattice span covers it (the engine's replica rule). BoxConcurrent
// exposes no per-region accessor, so the choices are read from
// shard.NewBox at the same side over the same snapshot, a stand-in that
// runs the same per-region selection (tune.SampleBoxes over the
// region's members, then tune.ChooseBox on this process's calibrated
// model).
func (s *serviceRunner) regionsAt(snap []geom.Rect) {
	c := shard.NewBox(s.params, serviceSide)
	c.Build(snap)
	var names []string
	for _, r := range c.Regions() {
		names = append(names, fmt.Sprintf("(%d,%d)=%s", r.CX, r.CY, r.Choice))
	}
	s.choices = append(s.choices, names)
	live := s.probe.lat.live(snap)
	var maxLive, sum float64
	for _, n := range live {
		maxLive = max(maxLive, float64(n))
		sum += float64(n)
	}
	if sum > 0 {
		s.imbalance = append(s.imbalance, maxLive/(sum/float64(len(live))))
	}
}

// checkSample compares an in-run query with the oracle's answers on the
// states before (a) and after (c) its tick's publish, both sorted. Each
// shard the query touched must have shown one of its two epochs, and
// when all of them showed the same side the answer must equal that
// side's exactly. A query whose shards showed different sides (one had
// published, another not) is reported as mixed: its answer may combine
// both states, and msg is set only when it breaks the per-object
// bracket.
func checkSample(q querySample, ep tickEpochs, a, c []uint32) (mixed bool, msg string) {
	side := 0 // bit 0: a shard showed only the pre state; bit 1: only the post state
	for _, o := range q.obs {
		if o.shard < 0 || o.shard >= len(ep.pre) {
			return false, fmt.Sprintf("unknown shard %d", o.shard)
		}
		isPre, isPost := o.epoch == ep.pre[o.shard], o.epoch == ep.post[o.shard]
		switch {
		case isPre && isPost:
		case isPre:
			side |= 1
		case isPost:
			side |= 2
		default:
			return false, fmt.Sprintf("shard %d served epoch %d, published were %d and %d", o.shard, o.epoch, ep.pre[o.shard], ep.post[o.shard])
		}
	}
	got := slices.Clone(q.ids)
	slices.Sort(got)
	ok := false
	switch side {
	case 0:
		ok = slices.Equal(got, a) || slices.Equal(got, c)
	case 1:
		ok = slices.Equal(got, a)
	case 2:
		ok = slices.Equal(got, c)
	default:
		// Per-object bracket: every id must intersect the window in one
		// of its two states, every object that intersects it in both
		// must be there, and none twice.
		if bracketed(got, a, c) {
			return true, ""
		}
		return true, fmt.Sprintf("%d ids (%d distinct), oracle has %d before and %d after the publish",
			len(got), len(slices.Compact(slices.Clone(got))), len(a), len(c))
	}
	if ok {
		return false, ""
	}
	return false, fmt.Sprintf("%d ids, oracle has %d before and %d after the publish", len(got), len(a), len(c))
}

// bracketed reports whether got has no duplicates and a∩c ⊆ got ⊆ a∪c,
// for sorted sets.
func bracketed(got, a, c []uint32) bool {
	for i, id := range got {
		if i > 0 && got[i-1] == id {
			return false
		}
		_, inA := slices.BinarySearch(a, id)
		_, inC := slices.BinarySearch(c, id)
		if !inA && !inC {
			return false
		}
	}
	for _, id := range a {
		_, inC := slices.BinarySearch(c, id)
		_, inGot := slices.BinarySearch(got, id)
		if inC && !inGot {
			return false
		}
	}
	return true
}

func (s *serviceRunner) layers(m metrics, traced []tickRec, clockPair float64) {
	var gen, apply, wait, self []float64
	var applyNs time.Duration
	var moves, queries, results, qTimed, fanout int64
	var qNs time.Duration
	for _, t := range traced {
		applyNs += t.apply
		moves += t.moves
		queries += t.queries
		results += t.results
		qTimed += t.qTimed
		qNs += t.qTimedNs
		fanout += t.fanout
	}
	qNet := netQueryNs(qNs, qTimed, clockPair)
	for _, t := range traced {
		gen = append(gen, durMs(t.gen))
		apply = append(apply, durMs(t.apply))
		wait = append(wait, durMs(t.applyWait))
		// The blocking branch of the overlapped section: the apply when
		// it ends last, else the reader's index time.
		onPath := t.apply
		if t.applyWait < 0 {
			onPath = time.Duration(float64(t.queries) * qNet)
		}
		self = append(self, durMs(t.wall-t.gen-onPath))
	}
	var builds []float64
	for _, d := range s.probe.builds {
		builds = append(builds, durMs(d))
	}
	// The engine's counters are cumulative; per-tick rates come from the
	// traced rounds' deltas over all their ticks.
	var epochs, retries, roundTicks float64
	prev := core.EpochStats{}
	for _, r := range s.rounds {
		if r.traced {
			epochs += float64(r.stats.Epochs - prev.Epochs)
			retries += float64(r.stats.Retries - prev.Retries)
			roundTicks += float64(r.ticks)
		}
		prev = r.stats
	}
	n := float64(len(traced))
	m.set("workload.gen_ms", stats.Median(gen))
	m.set("core.self_ms", stats.Median(self))
	m.set("index.build_ms", stats.Median(builds))
	m.set("index.update_ns", perOp(durNs(applyNs), moves))
	m.set("index.moves", float64(moves)/n)
	m.set("index.query_ns", qNet)
	m.set("index.results_per_query", perOp(float64(results), queries))
	m.set("index.queries", float64(queries)/n)
	m.set("index.memory_mb", float64(s.probe.memBytes)/1e6)
	m.set("shard.query_ns", qNet)
	m.set("shard.fanout", perOp(float64(fanout), queries))
	m.set("shard.region_imbalance", stats.Median(s.imbalance))
	m.set("epoch.apply_ms", stats.Median(apply))
	m.set("epoch.epochs", epochs/roundTicks)
	m.set("epoch.retries", retries/roundTicks)
	m.set("core.apply_wait_ms", stats.Median(wait))
	m.set("tune.calibrate_ms", durMs(s.calibrate))
}

func (s *serviceRunner) stack() string {
	return fmt.Sprintf("stack=shard.NewBoxConcurrent side=%d readers=1 driver=core.RunBoxesConcurrentSharded objects=%d queriers=%g updaters=%g extent=%s sides=[%g,%g]",
		serviceSide, s.cfg.NumPoints, s.cfg.Queriers, s.cfg.Updaters, s.cfg.Extent, s.cfg.MinSide, s.cfg.MaxSide)
}

func (s *serviceRunner) provenance() []string {
	out := []string{fmt.Sprintf("shard_side=%d", serviceSide)}
	distinct := map[string]int{}
	var order []string
	for _, c := range s.choices {
		k := strings.Join(c, " ")
		if distinct[k] == 0 {
			order = append(order, k)
		}
		distinct[k]++
	}
	for _, k := range order {
		out = append(out, fmt.Sprintf("region_choices=%s rounds=%d/%d", k, distinct[k], len(s.choices)))
	}
	out = append(out, fmt.Sprintf("mixed_epoch_samples=%d bracket_broken=%d (not counted as operations)", s.mixed, len(s.mixedBroken)))
	for i, d := range s.mixedBroken {
		if i == 3 {
			out = append(out, fmt.Sprintf("mixed-epoch bracket broken: ... %d more", len(s.mixedBroken)-i))
			break
		}
		out = append(out, "mixed-epoch bracket broken: "+d)
	}
	return out
}
