package main

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// This file is the benchmark's own join. It shares no code with the
// index families under test: it replays the seeded workload from a fresh
// generator and answers every query exactly from a bucketing of the
// objects' min corners, so a fault in any grid, router or epoch wrapper
// shows as a mismatch against it. Pair digests use core.MixPair, the drivers'
// published digest construction, so run and oracle digests compare
// directly.

// cellIndex answers closed-rectangle intersection queries exactly.
// Rectangles are bucketed by their min corner into square cells. A
// rectangle b meets query q only if its min corner lies in
// [q.MinX-maxW, q.MaxX] x [q.MinY-maxH, q.MaxY], where maxW and maxH are
// the widest and tallest extents present; that window is widened by one
// unit so float rounding can only add candidates, and every candidate
// gets the exact float32 test. Points are degenerate rectangles, for
// which the test is the workload's closed containment.
type cellIndex struct {
	x0, y0, cell float64
	side         int
	start        []int32 // cell k holds items[start[k]:start[k+1]]
	items        []cellItem
	maxW, maxH   float64
}

type cellItem struct {
	r  geom.Rect
	id uint32
}

// axis maps a coordinate to its clamped cell column (or row).
func (o *cellIndex) axis(d, lo float64) int {
	c := int(math.Floor((d - lo) / o.cell))
	return max(0, min(c, o.side-1))
}

func (o *cellIndex) cellOf(r geom.Rect) int {
	return o.axis(float64(r.MinY), o.y0)*o.side + o.axis(float64(r.MinX), o.x0)
}

// build indexes rects (object i has rectangle rects[i]) over square
// cells of side cell covering bounds; geometry outside bounds lands in
// the border cells.
func (o *cellIndex) build(rects []geom.Rect, bounds geom.Rect, cell float64) {
	o.x0, o.y0, o.cell = float64(bounds.MinX), float64(bounds.MinY), cell
	o.side = max(1, int(math.Ceil(float64(bounds.Width())/cell)))
	cells := o.side * o.side
	o.start = slices.Grow(o.start[:0], cells+1)[:cells+1]
	clear(o.start)
	o.maxW, o.maxH = 0, 0
	for _, r := range rects {
		o.start[o.cellOf(r)+1]++
		o.maxW = max(o.maxW, float64(r.MaxX)-float64(r.MinX))
		o.maxH = max(o.maxH, float64(r.MaxY)-float64(r.MinY))
	}
	for k := 1; k <= cells; k++ {
		o.start[k] += o.start[k-1]
	}
	o.items = slices.Grow(o.items[:0], len(rects))[:len(rects)]
	fill := slices.Clone(o.start[:cells])
	for i, r := range rects {
		k := o.cellOf(r)
		o.items[fill[k]] = cellItem{r: r, id: uint32(i)}
		fill[k]++
	}
}

// candidates calls visit with the items of every cell a rectangle
// meeting q can be filed under, one cell row at a time.
func (o *cellIndex) candidates(q geom.Rect, visit func(items []cellItem)) {
	cx0, cx1 := o.axis(float64(q.MinX)-o.maxW-1, o.x0), o.axis(float64(q.MaxX), o.x0)
	cy0, cy1 := o.axis(float64(q.MinY)-o.maxH-1, o.y0), o.axis(float64(q.MaxY), o.y0)
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * o.side
		visit(o.items[o.start[row+cx0]:o.start[row+cx1+1]])
	}
}

func meets(q, b geom.Rect) bool {
	return q.MinX <= b.MaxX && b.MinX <= q.MaxX && q.MinY <= b.MaxY && b.MinY <= q.MaxY
}

// digest returns the number of rectangles meeting q and the sum of
// their pair hashes for querier qid.
func (o *cellIndex) digest(q geom.Rect, qid uint32) (pairs int64, hash uint64) {
	o.candidates(q, func(items []cellItem) {
		for _, it := range items {
			if meets(q, it.r) {
				pairs++
				hash = core.MixPair(hash, qid, it.id)
			}
		}
	})
	return pairs, hash
}

// appendQuery appends every match of q to buf in ascending id order.
func (o *cellIndex) appendQuery(q geom.Rect, buf []uint32) []uint32 {
	n := len(buf)
	o.candidates(q, func(items []cellItem) {
		for _, it := range items {
			if meets(q, it.r) {
				buf = append(buf, it.id)
			}
		}
	})
	slices.Sort(buf[n:])
	return buf
}

// replayer is a fresh copy of a seeded workload, advanced tick by tick
// in the drivers' order: queriers, then the update batch, applied at the
// end of the tick.
type replayer interface {
	// snapshot writes every object's current rectangle into dst.
	snapshot(dst []geom.Rect) []geom.Rect
	queriers() []uint32
	queryRect(q uint32) geom.Rect
	// advance draws the tick's update batch and applies it.
	advance()
}

type pointReplay struct{ g *workload.Generator }

func (p pointReplay) snapshot(dst []geom.Rect) []geom.Rect {
	dst = dst[:0]
	for _, o := range p.g.Objects() {
		dst = append(dst, geom.Rect{MinX: o.Pos.X, MinY: o.Pos.Y, MaxX: o.Pos.X, MaxY: o.Pos.Y})
	}
	return dst
}
func (p pointReplay) queriers() []uint32           { return p.g.Queriers() }
func (p pointReplay) queryRect(q uint32) geom.Rect { return p.g.QueryRect(q) }
func (p pointReplay) advance()                     { p.g.ApplyUpdates(p.g.Updates()) }

type boxReplay struct{ g *workload.BoxGenerator }

func (b boxReplay) snapshot(dst []geom.Rect) []geom.Rect {
	return b.g.Rects(dst)
}
func (b boxReplay) queriers() []uint32           { return b.g.Queriers() }
func (b boxReplay) queryRect(q uint32) geom.Rect { return b.g.QueryRect(q) }
func (b boxReplay) advance()                     { b.g.ApplyUpdates(b.g.Updates()) }

// joinDigest folds one tick's exact join into (pairs, hash) exactly as
// the drivers fold theirs. The digest is a sum over pairs, so the
// queriers split across GOMAXPROCS goroutines and the parts add up.
func joinDigest(o *cellIndex, rp replayer, pairs int64, hash uint64) (int64, uint64) {
	queriers := rp.queriers()
	workers := runtime.GOMAXPROCS(0)
	type part struct {
		pairs int64
		hash  uint64
	}
	parts := make([]part, workers)
	chunk := (len(queriers) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range parts {
		lo := min(w*chunk, len(queriers))
		qs := queriers[lo:min(lo+chunk, len(queriers))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p part
			for _, q := range qs {
				n, h := o.digest(rp.queryRect(q), q)
				p.pairs += n
				p.hash += h
			}
			parts[w] = p
		}()
	}
	wg.Wait()
	for _, p := range parts {
		pairs += p.pairs
		hash += p.hash
	}
	return pairs, hash
}

// sweepDigest is the digest of one query per object: object i asks the
// workload's query window around its current geometry. The service
// workload runs it on the engine once every publish of a round has
// landed, and the oracle runs it on the same state.
func sweepDigest(n int, queryRect func(uint32) geom.Rect, query func(r geom.Rect, buf []uint32) []uint32) (int64, uint64) {
	var pairs int64
	var hash uint64
	var buf []uint32
	for i := 0; i < n; i++ {
		buf = query(queryRect(uint32(i)), buf[:0])
		for _, id := range buf {
			pairs++
			hash = core.MixPair(hash, uint32(i), id)
		}
	}
	return pairs, hash
}
