package engine

import (
	"runtime"
	"sort"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// Parallel work distribution starts sharded by origin node: Partition orders
// views by (origin, seq), so cutting the view slice only at origin
// boundaries hands each worker whole origins, and idle workers rebalance by
// stealing (see scheduler.go).
// Every worker owns one run (no shared run pool to migrate state through),
// one output arena (its flows stay on memory it touched), and the result
// slots it fills — the merge is the indexed writes themselves, trivially
// preserving packet-ID order.

// originChunks cuts views (sorted by origin) into at most want contiguous
// chunks of roughly equal event volume, never splitting an origin across
// chunks.
//
// Contract: the chunks tile [0, len(views)) exactly, in order, each one
// origin-aligned (no origin spans two chunks), and there are between 1 and
// want of them (inputs with a single origin yield exactly one chunk no
// matter how many are asked for — never-split wins). A chunk closes when
// admitting the next origin would push it past the per-chunk volume target,
// and the target is re-derived from the REMAINING volume and chunk budget
// after every cut, so one origin dominating the volume lands in its own
// chunk while the origins around it are still split toward want. (The old
// fixed-target cut only closed chunks at or above total/want, so a dominant
// origin anywhere in the order swallowed every origin after — or before —
// it into one chunk; under work stealing that mis-cut only costs balance.)
func originChunks(views []*event.PacketView, want int) [][2]int {
	if want < 1 {
		want = 1
	}
	total := 0
	rows := make([]int, len(views))
	for i, v := range views {
		rows[i] = v.TotalEvents()
		total += rows[i]
	}
	// First pass: origin segments (start view index, volume).
	type seg struct {
		start int
		vol   int
	}
	segs := make([]seg, 0, want)
	start := 0
	vol := 0
	for i := range views {
		vol += rows[i]
		if i+1 == len(views) || views[i+1].Packet.Origin != views[i].Packet.Origin {
			segs = append(segs, seg{start, vol})
			start, vol = i+1, 0
		}
	}
	// Second pass: greedy cut with lookahead — close the open chunk before
	// a segment that would overshoot the target, then re-derive the target
	// from what is left.
	chunks := make([][2]int, 0, want)
	lo, acc, remaining := 0, 0, total
	target := remaining/want + 1
	for _, sg := range segs {
		if acc > 0 && acc+sg.vol > target && len(chunks) < want-1 {
			chunks = append(chunks, [2]int{lo, sg.start})
			lo = sg.start
			remaining -= acc
			acc = 0
			target = remaining/(want-len(chunks)) + 1
		}
		acc += sg.vol
	}
	if lo < len(views) {
		chunks = append(chunks, [2]int{lo, len(views)})
	}
	return chunks
}

// perWorker scales an arena sizing down to one worker's expected share.
func perWorker(s flow.Sizing, workers int) flow.Sizing {
	if workers < 1 {
		workers = 1
	}
	return flow.Sizing{
		Flows:     s.Flows/workers + 1,
		Items:     s.Items/workers + 1,
		Visits:    s.Visits/workers + 1,
		Anomalies: s.Anomalies/workers + 1,
	}
}

// AnalyzeParallel reconstructs every packet flow like Analyze, fanning the
// per-packet work out over a pool of workers. Packet flows are mutually
// independent (the engine state is per packet), so the reconstruction
// parallelizes embarrassingly; results are returned in the same deterministic
// packet order Analyze uses. Work is sharded by origin node (see the package
// comment above), so each worker's run state, arena and flows never cross
// workers. workers <= 0 selects GOMAXPROCS.
func (e *Engine) AnalyzeParallel(c *event.Collection, workers int) *Result {
	views, ops := event.Partition(c)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(views) {
		workers = len(views)
	}
	res := &Result{Operational: ops, Flows: make([]*flow.Flow, len(views))}
	if len(views) == 0 {
		return res
	}
	if workers <= 1 {
		res.Flows = e.AnalyzeViews(views)
		return res
	}
	// Handing out origin-bounded index ranges amortizes the scheduler
	// synchronization over many packets (a campaign has thousands of
	// sub-millisecond packet analyses). Each worker writes only its own
	// result slots, so no further synchronization is needed.
	sizing := perWorker(e.flowSizing(views), workers)
	e.runSharded(views, workers, func(w int, next func() (int, int, bool)) {
		ws := newWorkerScratch(sizing, false, diagnosis.Config{})
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				res.Flows[i] = ws.run.analyze(e, views[i], ws.arena)
			}
		}
	})
	return res
}

// shardOf maps an origin node to one of workers shards (Fibonacci hashing,
// so dense origin IDs spread instead of striping).
func shardOf(origin event.NodeID, workers int) int {
	return int((uint64(origin) * 0x9E3779B97F4A7C15 >> 32) % uint64(workers))
}

// AnalyzeStream reconstructs every packet flow like AnalyzeParallel but
// overlaps partitioning with analysis: event.StreamPartition hands each
// packet's view to a worker the moment the partitioning scan has passed the
// packet's last event, instead of materializing every view before the first
// analysis starts. For campaign-scale collections this hides most of the
// partitioning cost behind the engine work.
//
// Views are routed to a home worker by origin (keeping an origin's flows on
// one arena), but an idle worker steals from the longest backlog instead of
// waiting behind a hot origin (see streamSource). Each worker owns its run
// state, its output arena and its slice of flows. The deterministic merge —
// concatenate the shards, sort by packet ID — restores Partition's order, so
// the Result is identical to Analyze's. workers <= 0 selects GOMAXPROCS.
func (e *Engine) AnalyzeStream(c *event.Collection, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	sizing := perWorker(e.streamSizing(c), workers)
	parts := make([][]*flow.Flow, workers)
	ops := e.runStreamSharded(c, workers, func(w int, recv func() (*event.PacketView, bool)) {
		ws := newWorkerScratch(sizing, false, diagnosis.Config{})
		var out []*flow.Flow
		for v, ok := recv(); ok; v, ok = recv() {
			out = append(out, ws.run.analyze(e, v, ws.arena))
		}
		parts[w] = out
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	res := &Result{Operational: ops, Flows: make([]*flow.Flow, 0, total)}
	for _, p := range parts {
		res.Flows = append(res.Flows, p...)
	}
	// Shards complete in nondeterministic relative order; restore
	// Partition's packet-ID order so the Result matches Analyze bit for
	// bit.
	sort.Slice(res.Flows, func(i, j int) bool { return packetLess(res.Flows[i].Packet, res.Flows[j].Packet) })
	return res
}

// streamSizing estimates arena geometry before any views exist: the
// collection's total event count bounds the logged volume, and the inferred
// share uses the same eighth-of-logged heuristic as flowSizing. View and
// span counts are unknown mid-stream, so the flow/visit hints borrow the
// partitioners' events/8 packet-count guess.
func (e *Engine) streamSizing(c *event.Collection) flow.Sizing {
	logged := c.TotalEvents()
	inferred := 0
	if !e.opts.DisableIntra || !e.opts.DisableInter {
		inferred = logged/8 + 1
	}
	pkts := logged/8 + 1
	return flow.Sizing{
		Flows:     pkts,
		Items:     logged + inferred,
		Visits:    pkts * 2,
		Anomalies: pkts/32 + 4,
	}
}
