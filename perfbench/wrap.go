package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file holds the wrappers the benchmark puts between the drivers
// and the program. The source wrappers observe tick boundaries at the
// drivers' calls into the workload (a few clock reads per tick, none
// per query). The index wrappers exist for the traced run and for the
// service workload's consistency sample; each embeds the exact method
// set of the pinned stack it wraps, so every optional capability the
// drivers probe for is forwarded and none is added (capability_test.go
// pins this).

// querySampleEvery is the traced run's per-query timing rate: every
// query is counted, one in this many is timed, which keeps the clock
// reads (about 170 ns a pair on the reference machine) to a few percent
// of the query phase.
const querySampleEvery = 16

// tickRec is one tick as the benchmark saw it.
type tickRec struct {
	round  int
	traced bool
	// wall is the tick's wall time; update is the time from handing the
	// tick's moves to the index until they are visible to queries.
	wall, update time.Duration
	// cpu is the process CPU time (all threads) the tick used.
	cpu time.Duration

	// Traced rounds only.
	gen       time.Duration // time inside Queriers, Updates, ApplyUpdates
	build     time.Duration // time inside Build (sequential drivers)
	idxUpdate time.Duration // Updates return to ApplyUpdates entry (sequential)
	apply     time.Duration // sharded ApplyBatch (service)
	applyWait time.Duration // apply end minus the tick's last query end (service)
	queries   int64
	results   int64
	moves     int64
	fanout    int64
	qTimed    int64
	qTimedNs  time.Duration
}

func (t tickRec) wallMs() float64   { return durMs(t.wall) }
func (t tickRec) updateMs() float64 { return durMs(t.update) }

// recorder collects one run's ticks. The source wrapper opens and
// closes ticks on the driver goroutine; index wrappers add to the open
// tick. In the service driver the reader and the updater goroutines
// write disjoint fields of the open tick, and the driver joins both
// before it calls ApplyUpdates, which closes it.
type recorder struct {
	// tickAtQueriers starts a tick at the Queriers call (the service
	// driver, whose Build runs between rounds); otherwise a tick starts
	// where the previous one ended, or at the round's driver call.
	tickAtQueriers bool
	// ready, when set, runs at the first Queriers call (set-up probes).
	ready func()

	round  int
	traced bool
	tickNo int // ticks started so far in the process

	tickStart, updStart, mark time.Time
	cpuStart                  time.Duration
	nQueriers                 int
	applyEnd, readersEnd      time.Time
	cur                       tickRec
	ticks                     []tickRec
}

// startRound marks the driver call that begins a round.
func (r *recorder) startRound(round int, traced bool) {
	r.round, r.traced = round, traced
	r.tickStart = time.Now()
	r.cpuStart = processCPU()
}

func (r *recorder) queriersIn() {
	if r.ready != nil {
		r.ready()
		r.ready = nil
	}
	if r.tickAtQueriers || r.traced {
		r.mark = time.Now()
		if r.tickAtQueriers {
			r.tickStart = r.mark
			r.cpuStart = processCPU()
		}
	}
}

func (r *recorder) queriersOut(n int) {
	r.nQueriers = n
	r.tickNo++
	if r.traced {
		r.cur.gen += time.Since(r.mark)
	}
}

func (r *recorder) updatesIn() {
	if !r.tickAtQueriers || r.traced {
		r.updStart = time.Now()
	}
}

func (r *recorder) updatesOut() {
	if r.traced {
		r.mark = time.Now()
		r.cur.gen += r.mark.Sub(r.updStart)
	}
}

func (r *recorder) applyIn() time.Time {
	if !r.traced {
		return time.Time{}
	}
	now := time.Now()
	if !r.tickAtQueriers {
		r.cur.idxUpdate = now.Sub(r.mark)
	}
	return now
}

func (r *recorder) applyOut(in time.Time) {
	end := time.Now()
	c := &r.cur
	c.round, c.traced = r.round, r.traced
	c.wall = end.Sub(r.tickStart)
	if r.tickAtQueriers {
		c.update = c.apply
		if r.traced && !r.readersEnd.IsZero() {
			c.applyWait = r.applyEnd.Sub(r.readersEnd)
		}
	} else {
		c.update = end.Sub(r.updStart)
	}
	if r.traced {
		c.gen += end.Sub(in)
	}
	cpu := processCPU()
	c.cpu = cpu - r.cpuStart
	r.ticks = append(r.ticks, *c)
	r.cur = tickRec{}
	r.readersEnd = time.Time{}
	r.tickStart, r.cpuStart = end, cpu
}

// processCPU returns the user plus system CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pointSource is the point workload with its tick boundaries observed.
type pointSource struct {
	workload.Source
	rec *recorder
}

func (s pointSource) Queriers() []uint32 {
	s.rec.queriersIn()
	q := s.Source.Queriers()
	s.rec.queriersOut(len(q))
	return q
}

func (s pointSource) Updates() []workload.Update {
	s.rec.updatesIn()
	u := s.Source.Updates()
	s.rec.updatesOut()
	return u
}

func (s pointSource) ApplyUpdates(b []workload.Update) {
	in := s.rec.applyIn()
	s.Source.ApplyUpdates(b)
	s.rec.applyOut(in)
}

// boxSource is the MBR workload with its tick boundaries observed.
type boxSource struct {
	workload.BoxSource
	rec *recorder
}

func (s boxSource) Queriers() []uint32 {
	s.rec.queriersIn()
	q := s.BoxSource.Queriers()
	s.rec.queriersOut(len(q))
	return q
}

func (s boxSource) Updates() []workload.BoxUpdate {
	s.rec.updatesIn()
	u := s.BoxSource.Updates()
	s.rec.updatesOut()
	return u
}

func (s boxSource) ApplyUpdates(b []workload.BoxUpdate) {
	in := s.rec.applyIn()
	s.BoxSource.ApplyUpdates(b)
	s.rec.applyOut(in)
}

// seqStack is the full method set of the two pinned sequential stacks,
// grid.Grid (csr, cps 64) over points and grid.BoxGrid2L (cps 64) over
// rectangles, with P the object geometry and M its move type.
type seqStack[P, M any] interface {
	Name() string
	Build(snap []P)
	BuildParallel(snap []P, workers int)
	Query(r geom.Rect, emit func(id uint32))
	QueryAppend(r geom.Rect, buf []uint32) []uint32
	QueryBatch(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32)
	Update(id uint32, old, new P)
	UpdateBatch(moves []M, workers int)
	CanBatchUpdates(n int) bool
	Len() int
	MemoryBytes() int64
	CheckInvariants() error
	Instrument(r *obs.Registry)
}

// tracedIndex times the calls the sequential drivers make into their
// index (Build, QueryAppend and Update under the default query kernel;
// every other method is forwarded untouched). Builds are timed whole,
// one query in querySampleEvery is timed (all are counted), and moves
// are counted; the update phase's time comes from the source boundaries
// around it.
type tracedIndex[P, M any] struct {
	seqStack[P, M]
	rec *recorder
	n   uint32
}

func (t *tracedIndex[P, M]) Build(snap []P) {
	a := time.Now()
	t.seqStack.Build(snap)
	t.rec.cur.build += time.Since(a)
}

func (t *tracedIndex[P, M]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	c := &t.rec.cur
	n0 := len(buf)
	t.n++
	if t.n%querySampleEvery == 0 {
		a := time.Now()
		buf = t.seqStack.QueryAppend(r, buf)
		c.qTimedNs += time.Since(a)
		c.qTimed++
	} else {
		buf = t.seqStack.QueryAppend(r, buf)
	}
	c.queries++
	c.results += int64(len(buf) - n0)
	return buf
}

func (t *tracedIndex[P, M]) Update(id uint32, old, new P) {
	t.rec.cur.moves++
	t.seqStack.Update(id, old, new)
}

// serviceStack is the method set of shard.BoxConcurrent that its
// driver and the benchmark use: the sharded epoch box contract, its
// buffered query appender, and instrumentation.
type serviceStack interface {
	core.ShardedEpochBoxIndex
	core.ShardedEpochQueryAppender
	obs.Instrumentable
}

// shardObs is one (shard, epoch) observation of a query.
type shardObs struct {
	shard int
	epoch uint64
}

// querySample is an in-run query kept for the oracle: its tick, window,
// answer and the per-shard epochs it observed.
type querySample struct {
	tick int
	rect geom.Rect
	ids  []uint32
	obs  []shardObs
}

// tickEpochs are every shard's live epoch just before and just after a
// tick's ApplyBatch.
type tickEpochs struct {
	tick      int
	pre, post []uint64
}

// probe wraps the sharded service engine. In every run it keeps a
// seeded sample of in-run queries with the epochs they observed, and
// each shard's epochs around every publish; in a traced round it also
// times the apply, one query in querySampleEvery, and the tick's last
// query. The service driver runs one reader goroutine, so the query
// path has one writer.
type probe struct {
	serviceStack
	rec      *recorder
	sampleOn uint64 // seed-derived salt of the query sample
	lat      fanoutLattice

	// measureMem makes the first Build measure the engine's retained
	// heap into memBytes.
	measureMem bool
	memBytes   int64

	mu      sync.Mutex
	samples []querySample
	epochs  []tickEpochs
	builds  []time.Duration
	n       uint32
}

// sampleShift sets the in-run check sample to one query in
// 2^sampleShift: a few hundred samples per run, few enough that their
// copies stay a small part of the peak RSS the run reports.
const sampleShift = 9

func (p *probe) sampled(r geom.Rect) bool {
	h := uint64(math.Float32bits(r.MinX))<<32 | uint64(math.Float32bits(r.MinY))
	h = core.MixPair(p.sampleOn, uint32(h>>32), uint32(h))
	return h>>(64-sampleShift) == 0
}

// Build times the engine's build. The first one, when measureMem is
// set, also takes the growth of the live heap across it, between two
// collections outside the timed span: the memory the engine keeps for
// its regions' published buffers, routing tables and inner indexes.
func (p *probe) Build(rects []geom.Rect) {
	var before runtime.MemStats
	measure := p.measureMem && len(p.builds) == 0
	if measure {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	a := time.Now()
	p.serviceStack.Build(rects)
	p.builds = append(p.builds, time.Since(a))
	if measure {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		p.memBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
}

func (p *probe) epochsNow() []uint64 {
	out := make([]uint64, p.NumShards())
	for i := range out {
		out[i], _ = p.ShardEpoch(i)
	}
	return out
}

func (p *probe) ApplyBatch(moves []geom.BoxMove) error {
	pre := p.epochsNow()
	a := time.Now()
	err := p.serviceStack.ApplyBatch(moves)
	end := time.Now()
	p.epochs = append(p.epochs, tickEpochs{tick: p.rec.tickNo, pre: pre, post: p.epochsNow()})
	c := &p.rec.cur
	c.apply = end.Sub(a)
	c.moves = int64(len(moves))
	p.rec.applyEnd = end
	return err
}

func (p *probe) QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, epoch, digest uint64)) []uint32 {
	traced := p.rec.traced
	keep := p.sampled(r)
	p.n++
	timed := traced && p.n%querySampleEvery == 0
	if !keep && !traced {
		return p.serviceStack.QueryAppend(r, buf, observe)
	}
	n0 := len(buf)
	var seen []shardObs
	if keep {
		inner := observe
		observe = func(shard int, epoch, digest uint64) {
			seen = append(seen, shardObs{shard, epoch})
			inner(shard, epoch, digest)
		}
	}
	var a time.Time
	if timed {
		a = time.Now()
	}
	buf = p.serviceStack.QueryAppend(r, buf, observe)
	c := &p.rec.cur
	if timed {
		c.qTimedNs += time.Since(a)
		c.qTimed++
	}
	if traced {
		c.queries++
		c.results += int64(len(buf) - n0)
		c.fanout += int64(p.lat.fanout(r))
		if int(c.queries) == p.rec.nQueriers {
			p.rec.readersEnd = time.Now()
		}
	}
	if keep {
		p.mu.Lock()
		p.samples = append(p.samples, querySample{
			tick: p.rec.tickNo,
			rect: r,
			ids:  append([]uint32(nil), buf[n0:]...),
			obs:  seen,
		})
		p.mu.Unlock()
	}
	return buf
}

// fanoutLattice counts the regions of a side x side lattice over bounds
// that a window overlaps, with border clamping, as the shard router
// routes it.
type fanoutLattice struct {
	side   int
	bounds geom.Rect
}

func (l fanoutLattice) axis(d, lo, width float32) int {
	f := (d - lo) * (float32(l.side) / width)
	if !(f > 0) {
		return 0
	}
	return min(int(f), l.side-1)
}

// live counts, per region, the rects whose span covers it: the
// replicas each region of the engine holds.
func (l fanoutLattice) live(rects []geom.Rect) []int {
	n := make([]int, l.side*l.side)
	w := l.bounds.Width()
	for _, r := range rects {
		x0, x1 := l.axis(r.MinX, l.bounds.MinX, w), l.axis(r.MaxX, l.bounds.MinX, w)
		y0, y1 := l.axis(r.MinY, l.bounds.MinY, w), l.axis(r.MaxY, l.bounds.MinY, w)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				n[cy*l.side+cx]++
			}
		}
	}
	return n
}

func (l fanoutLattice) fanout(r geom.Rect) int {
	w := l.bounds.Width()
	x0 := l.axis(r.MinX, l.bounds.MinX, w)
	x1 := l.axis(r.MaxX, l.bounds.MinX, w)
	y0 := l.axis(r.MinY, l.bounds.MinY, w)
	y1 := l.axis(r.MaxY, l.bounds.MinY, w)
	return (x1 - x0 + 1) * (y1 - y0 + 1)
}
