package engine

import (
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
// chunk while the origins around it are still split toward want.
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
	return flow.Sizing{
		Flows:     s.Flows/workers + 1,
		Items:     s.Items/workers + 1,
		Visits:    s.Visits/workers + 1,
		Anomalies: s.Anomalies/workers + 1,
	}
}
