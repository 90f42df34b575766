package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
)

// The straddle check is the service workload's fixed-input operation. A
// query over the centre of the 2 x 2 region lattice reads the regions
// one after another; the check lands a whole publish between the first
// region's read and the next, which in a run happens only when the
// scheduler lets it. An engine that publishes atomically for readers
// answers from the state before or after the publish; the answer must
// equal the oracle on one of them, without duplicates. The scene does
// not depend on the seed, so the check gives the same verdict in every
// round of every run.

// straddleEngine is what the check needs of the sharded engine.
type straddleEngine interface {
	Build(rects []geom.Rect)
	ApplyBatch(moves []geom.BoxMove) error
	QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, epoch, digest uint64)) []uint32
}

// straddleScene returns the fixed scene over bounds: the boxes before a
// batch, the batch, and the query window. Two boxes meet the window in
// both states and move across the vertical region boundary below the
// centre: box 0 from a span of regions (0,0)-(1,0) with its
// intersection's reference point in (0,0) to region (1,0) alone, box 1
// the other way. Static boxes fill each quadrant of the window and one
// straddles all four regions.
func straddleScene(bounds geom.Rect) (pre []geom.Rect, moves []geom.BoxMove, q geom.Rect) {
	w := bounds.Width()
	mx, my := bounds.MinX+w/2, bounds.MinY+w/2
	u := w / 200
	box := func(x0, y0, x1, y1 float32) geom.Rect {
		return geom.Rect{MinX: mx + x0*u, MinY: my + y0*u, MaxX: mx + x1*u, MaxY: my + y1*u}
	}
	across := box(-2, -2, 2, -1)
	right := box(1, -4, 3, -3)
	pre = []geom.Rect{
		across,
		right,
		box(-1, -1, 1, 1),       // all four regions
		box(-4, -4, -3, -3),     // (0,0)
		box(3, 3, 4, 4),         // (1,1)
		box(-4, 3, -3, 4),       // (0,1)
		box(3, -8, 4, -7),       // (1,0)
		box(-30, -30, -29, -29), // outside the window
	}
	moves = []geom.BoxMove{
		{ID: 0, Old: across, New: box(1, -2, 3, -1)},
		{ID: 1, Old: right, New: box(-2, -4, 2, -3)},
	}
	return pre, moves, box(-10, -10, 10, 10)
}

// straddleApplyWait is how long the check waits, inside the query, for
// the publish to finish. An engine that holds the query's view of
// every region may make the publish wait for the query; the query then
// goes on and must show the state before the publish.
const straddleApplyWait = 2 * time.Second

// straddle runs the check on a fresh engine for the scene's objects and
// returns "" when the answer holds, else what was wrong.
func straddle(newEngine func(objects int) straddleEngine, bounds geom.Rect) string {
	pre, moves, q := straddleScene(bounds)
	e := newEngine(len(pre))
	post := slices.Clone(pre)
	for _, m := range moves {
		post[m.ID] = m.New
	}
	e.Build(pre)
	done := make(chan error, 1)
	started := false
	got := e.QueryAppend(q, nil, func(int, uint64, uint64) {
		if started {
			return
		}
		started = true
		go func() { done <- e.ApplyBatch(moves) }()
		select {
		case err := <-done:
			done <- err
		case <-time.After(straddleApplyWait):
		}
	})
	if !started {
		return "the query observed no region"
	}
	select {
	case err := <-done:
		if err != nil {
			return fmt.Sprintf("publish failed: %v", err)
		}
	case <-time.After(10 * straddleApplyWait):
		return "the publish did not finish after the query"
	}
	slices.Sort(got)
	a, c := bruteQuery(pre, q), bruteQuery(post, q)
	if slices.Equal(got, a) || slices.Equal(got, c) {
		return ""
	}
	return fmt.Sprintf("ids %v, oracle %v before and %v after the publish", got, a, c)
}

// bruteQuery lists, in order, the ids of rects that meet q.
func bruteQuery(rects []geom.Rect, q geom.Rect) []uint32 {
	var out []uint32
	for i, r := range rects {
		if q.Intersects(r) {
			out = append(out, uint32(i))
		}
	}
	return out
}
