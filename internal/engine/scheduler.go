package engine

import (
	"sync"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// Work-stealing shard scheduler. Each worker starts with a volume-balanced,
// origin-aligned share of the views (originChunks), so a uniform campaign
// never pays a steal; idle workers then steal — half a victim's queued units
// at a time, or, when the victim is down to a single large unit, half of
// that unit's view range. A fixed origin-aligned cut would serialize the
// tail whenever the origin distribution is skewed (one hot origin is one
// chunk, and every other worker idles while its owner walks it). Splitting
// inside an origin is legal because packet reconstruction is independent
// per view and every result lands in a packet-indexed slot.
//
// Determinism: the set of (view index → worker) assignments is racy by
// construction, but the fused driver writes flows and outcomes into
// per-view indexed slots and folds per-worker aggregates with the
// order-independent diagnosis.Aggregate.Merge. Steal order therefore never
// leaks into the output.
//
// Ownership: the deques are shared mutably across workers by design — every
// access is under the per-deque mutex, and a unit is plain data (two ints),
// not scratch state. The worker-owned state (run, arena, classifier,
// aggregate) is bundled in workerScratch below, constructed inside each
// worker goroutine and never crossing it; see //refill:owned.

// unit is one batch work item: the view index range [lo, hi). Units are
// origin-aligned when enqueued; a steal may split one mid-origin.
type unit struct{ lo, hi int32 }

// stealDeque is one worker's unit queue. The owner pops from the tail,
// thieves take from the head, both under mu.
type stealDeque struct {
	mu    sync.Mutex
	units []unit
	_     [40]byte // pad to a cache line so neighboring deques don't false-share
}

// stealScheduler distributes origin-aligned view ranges over per-worker
// deques with steal-half rebalancing.
type stealScheduler struct {
	deques []stealDeque
	grain  int32
}

// newStealScheduler seeds one deque per worker with that worker's share of
// the origin-chunk cut, split into per-origin units so thieves can
// take whole origins before they resort to splitting one.
func newStealScheduler(views []*event.PacketView, workers int) *stealScheduler {
	s := &stealScheduler{deques: make([]stealDeque, workers)}
	// Pop granularity: coarse enough to amortize the deque lock over many
	// sub-millisecond packet analyses, fine enough that a split unit still
	// spreads. ~64 pops per worker per campaign.
	s.grain = int32(len(views)/(workers*64)) + 1
	for w, ch := range originChunks(views, workers) {
		d := &s.deques[w%workers]
		lo := ch[0]
		for i := ch[0]; i < ch[1]; i++ {
			if i+1 == ch[1] || views[i+1].Packet.Origin != views[i].Packet.Origin {
				d.units = append(d.units, unit{int32(lo), int32(i + 1)})
				lo = i + 1
			}
		}
	}
	return s
}

// next returns worker w's next view range. It pops grain-bounded slices off
// the worker's own deque first, then tries each victim in turn: half the
// victim's units when it has several, half its single unit's range when that
// is all that's left. A full empty scan means the batch is drained — units
// only ever move into a live worker's own deque (placed there by that worker
// itself), so no unit can outlive the workers that can see it.
func (s *stealScheduler) next(w int) (int, int, bool) {
	if lo, hi, ok := s.pop(w); ok {
		return lo, hi, true
	}
	n := len(s.deques)
	for off := 1; off < n; off++ {
		if lo, hi, ok := s.steal(w, (w+off)%n); ok {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// pop takes up to grain views from the tail unit of w's own deque.
func (s *stealScheduler) pop(w int) (int, int, bool) {
	d := &s.deques[w]
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.units) == 0 {
		return 0, 0, false
	}
	u := &d.units[len(d.units)-1]
	if u.hi-u.lo > s.grain {
		u.hi -= s.grain
		return int(u.hi), int(u.hi + s.grain), true
	}
	lo, hi := u.lo, u.hi
	d.units = d.units[:len(d.units)-1]
	return int(lo), int(hi), true
}

// steal moves half of victim v's work to worker w. With several units queued
// it takes the head half (the units farthest from the owner's tail); with one
// unit left it splits the range in half, leaving the owner the front. The
// spoils land in w's own deque (so only w hands them out afterwards) and the
// first slice is returned directly.
func (s *stealScheduler) steal(w, v int) (int, int, bool) {
	d := &s.deques[v]
	d.mu.Lock()
	var taken []unit
	switch {
	case len(d.units) >= 2:
		half := (len(d.units) + 1) / 2
		taken = append(taken, d.units[:half]...)
		d.units = append(d.units[:0], d.units[half:]...)
	case len(d.units) == 1:
		u := &d.units[0]
		if u.hi-u.lo >= 2*s.grain {
			mid := u.lo + (u.hi-u.lo)/2
			taken = append(taken, unit{mid, u.hi})
			u.hi = mid
		} else {
			taken = append(taken, *u)
			d.units = d.units[:0]
		}
	}
	d.mu.Unlock()
	if len(taken) == 0 {
		return 0, 0, false
	}
	own := &s.deques[w]
	own.mu.Lock()
	own.units = append(own.units, taken...)
	own.mu.Unlock()
	return s.pop(w)
}

// runSharded fans body out over workers goroutines, each pulling view ranges
// from a steal scheduler until the batch drains. body runs on the spawned
// goroutine, so worker-owned scratch constructed inside it never crosses a
// goroutine boundary.
func (e *Engine) runSharded(views []*event.PacketView, workers int, body func(w int, next func() (int, int, bool))) {
	src := newStealScheduler(views, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, func() (int, int, bool) { return src.next(w) })
		}(w)
	}
	wg.Wait()
}

// workerScratch bundles the state one reconstruction worker owns for the
// duration of a batch: its run, its output arena, its classifier scratch
// and its diagnosis aggregate. Sharded workers construct theirs inside the
// worker goroutine, and the aggregate leaves only through the sanctioned
// merge-at-join handoff at the caller; a one-worker batch builds one inline.
//
//refill:owned
type workerScratch struct {
	run   *run
	arena *flow.Arena
	cl    *diagnosis.Classifier
	agg   *diagnosis.Aggregate
}

// newWorkerScratch builds one worker's scratch, its aggregate binned by cfg.
func newWorkerScratch(sizing flow.Sizing, cfg diagnosis.Config) *workerScratch {
	return &workerScratch{
		run:   new(run),
		arena: flow.NewArena(sizing),
		cl:    diagnosis.NewClassifier(),
		agg:   diagnosis.NewAggregate(cfg.Sink, cfg.Start, cfg.DayLen, cfg.Days),
	}
}
