package event

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/event/snapfile"
)

// Residency windows: the out-of-core analysis path (engine.
// AnalyzeSnapshotDiagnosed) walks a mapped snapshot one time-window at a
// time, feeding each window's rows through the watermark machinery and
// analyzing only the packets the window completes. The planner below cuts a
// collection into row-balanced windows by TIME — so the watermark argument
// that makes retirement safe (see watermark.go) carries over verbatim — while
// feeding by per-node ROW RANGES, so a window touches only its own pages of
// the mapping. The bridge between the two is the repo-wide log assumption
// made explicit: per-node logs are append-only in local-clock order, so "rows
// with time <= t" is a per-node prefix and one binary search per node turns a
// time cut into a row bound. PlanWindows verifies the assumption (one
// sequential pass over the time column — the only full-column touch the plan
// costs) and refuses collections that violate it rather than feeding rows
// twice or never.

// WindowPlan is a residency-window schedule over a collection: ascending time
// cuts, and for every (window, node) the exclusive row bound of the node's
// rows with time <= cut. Window k feeds each node's rows
// [bounds[k-1], bounds[k]) — the windows tile every log exactly. The final
// cut is always math.MaxInt64, so the last window drains every log.
type WindowPlan struct {
	nodes    []NodeID
	cuts     []int64
	bounds   [][]int32 // [window][node index] exclusive row bound
	rowStart []uint64  // per node: global row offset in snapshot layout
	rows     int
}

// PlanWindows cuts c into residency windows of roughly targetRows rows each.
// It fails if any node's log is not time-nondecreasing — the property the
// per-node prefix feeding depends on (and the property the watermark contract
// already promises for collected logs); callers should fall back to batch
// analysis then. A collection smaller than targetRows yields one window.
func PlanWindows(c *Collection, targetRows int) (*WindowPlan, error) {
	if targetRows < 1 {
		targetRows = 1
	}
	nodes := c.Nodes()
	p := &WindowPlan{nodes: nodes, rowStart: make([]uint64, len(nodes))}
	times := make([][]int64, len(nodes))
	var minT, maxT int64
	total := 0
	first := true
	for i, n := range nodes {
		col := c.Logs[n].batch.time
		times[i] = col
		p.rowStart[i] = uint64(total)
		total += len(col)
		for j, t := range col {
			if j > 0 && t < col[j-1] {
				return nil, fmt.Errorf("event: node %d log not time-ordered at row %d (%d after %d) — windowed feeding needs per-node monotone timestamps", n, j, t, col[j-1])
			}
			if first {
				minT, maxT, first = t, t, false
			} else if t < minT {
				minT = t
			} else if t > maxT {
				maxT = t
			}
		}
	}
	p.rows = total

	// rowsUpTo counts rows with time <= t across all nodes: a per-node
	// binary search, touching O(nodes * log rows) mapped pages per probe.
	rowsUpTo := func(t int64) int {
		s := 0
		for _, col := range times {
			s += sort.Search(len(col), func(i int) bool { return col[i] > t })
		}
		return s
	}

	// Binary-search the VALUE domain for each interior cut: the smallest
	// time t with at least k/w of the rows at or below it. Cutting by time
	// rather than by row position is what keeps the retirement-safety
	// argument one line (an unfed row is strictly later than the cut);
	// balancing by row count is what keeps window working sets even when
	// the event rate drifts over the campaign. Duplicate cuts (one
	// timestamp dominating the volume) collapse into fewer, larger windows.
	w := (total + targetRows - 1) / targetRows
	if w < 1 {
		w = 1
	}
	for k := 1; k < w; k++ {
		want := k * total / w
		lo, hi := minT, maxT
		for lo < hi {
			mid := lo + (hi-lo)/2
			if rowsUpTo(mid) >= want {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if len(p.cuts) > 0 && lo <= p.cuts[len(p.cuts)-1] {
			continue
		}
		p.cuts = append(p.cuts, lo)
	}
	p.cuts = append(p.cuts, math.MaxInt64)

	p.bounds = make([][]int32, len(p.cuts))
	for k, cut := range p.cuts {
		bk := make([]int32, len(nodes))
		for i, col := range times {
			if cut == math.MaxInt64 {
				bk[i] = int32(len(col))
				continue
			}
			bk[i] = int32(sort.Search(len(col), func(j int) bool { return col[j] > cut }))
		}
		p.bounds[k] = bk
	}
	return p, nil
}

// Windows returns the number of windows in the plan.
func (p *WindowPlan) Windows() int { return len(p.cuts) }

// Cut returns window k's exclusive upper time bound (math.MaxInt64 for the
// final window).
func (p *WindowPlan) Cut(k int) int64 { return p.cuts[k] }

// Rows returns the total row count the plan covers.
func (p *WindowPlan) Rows() int { return p.rows }

// WindowRows returns the number of rows window k feeds.
func (p *WindowPlan) WindowRows(k int) int {
	total := 0
	for i := range p.nodes {
		total += int(p.bounds[k][i] - p.lowBound(k, i))
	}
	return total
}

// lowBound is node i's inclusive starting row for window k.
func (p *WindowPlan) lowBound(k, i int) int32 {
	if k == 0 {
		return 0
	}
	return p.bounds[k-1][i]
}

// FeedWindow appends window k's packet-scoped rows into dst, preserving each
// node's log order (the only order the retirement consumer depends on).
// Operational rows are skipped — the out-of-core driver extracts them once up
// front with OperationalEvents. Returns the number of rows fed.
func (p *WindowPlan) FeedWindow(c *Collection, k int, dst *PendingStore) int {
	fed := 0
	for i, n := range p.nodes {
		b := &c.Logs[n].batch
		lo, hi := int(p.lowBound(k, i)), int(p.bounds[k][i])
		for r := lo; r < hi; r++ {
			if !b.typ[r].PacketScoped() {
				continue
			}
			dst.Append(n, b.At(r))
			fed++
		}
	}
	return fed
}

// MaxPacketSpread measures the collection's maximum within-packet timestamp
// spread — the exact value of the completeness horizon a deployment would
// bound from its clock-skew and packet-lifetime budgets. The out-of-core path
// uses it when the caller supplies no horizon. It keeps per-slot minimum and
// maximum times on the partitioners' slot index, so no row is hashed.
func MaxPacketSpread(c *Collection) int64 {
	nodes := c.Nodes()
	ix := newSlotIndex(c, nodes)
	lo := make([]int64, ix.slots)
	hi := make([]int64, ix.slots)
	for s := range lo {
		lo[s], hi[s] = math.MaxInt64, math.MinInt64
	}
	for _, n := range nodes {
		b := &c.Logs[n].batch
		for i, t := range b.typ {
			if !t.PacketScoped() {
				continue
			}
			s, tm := ix.slot(b.origin[i], b.seq[i]), b.time[i]
			lo[s], hi[s] = min(lo[s], tm), max(hi[s], tm)
		}
	}
	horizon := int64(0)
	for s := range lo {
		if lo[s] <= hi[s] {
			horizon = max(horizon, hi[s]-lo[s])
		}
	}
	return horizon
}

// adviseColumns maps each hot column section to its element width, for
// translating a window's row ranges into file byte ranges.
var adviseColumns = [...]struct {
	id   uint32
	elem uint64
}{
	{secNode, 4}, {secType, 1}, {secSender, 4}, {secReceiver, 4},
	{secOrigin, 4}, {secSeq, 4}, {secTime, 8},
}

// adviseWindow forwards a residency hint for every hot-column byte range
// window k touches. The plan must have been built over this snapshot's own
// Collection: node order (ascending) and per-node row counts then match the
// span index, so the plan's global row offsets address the mapped columns
// exactly. Out-of-range k is ignored (the prefetch of the window after the
// last one).
func (s *Snapshot) adviseWindow(p *WindowPlan, k int, a snapfile.Advice) {
	if k < 0 || k >= p.Windows() {
		return
	}
	for i := range p.nodes {
		lo, hi := uint64(p.lowBound(k, i)), uint64(p.bounds[k][i])
		if lo >= hi {
			continue
		}
		gLo, gHi := p.rowStart[i]+lo, p.rowStart[i]+hi
		for _, col := range adviseColumns {
			off, n, ok := s.file.SectionRange(col.id)
			if !ok {
				continue
			}
			b, e := gLo*col.elem, gHi*col.elem
			if e > n {
				e = n
			}
			if b >= e {
				continue
			}
			s.file.Advise(off+b, e-b, a)
		}
	}
}

// PrefetchWindow asks the OS to start faulting window k's column pages in —
// called for window k+1 while window k is being processed, so the next
// window's reads overlap the current window's compute. Best-effort; a no-op
// without a real mapping (refill_nommap) or past the last window.
func (s *Snapshot) PrefetchWindow(p *WindowPlan, k int) {
	s.adviseWindow(p, k, snapfile.AdviseWillNeed)
}

// ReleaseWindow tells the OS window k's column pages will not be touched
// again, bounding the analysis working set to roughly two windows. Safe
// unconditionally: the mapping is read-only and file-backed, so a stray later
// touch just re-faults.
func (s *Snapshot) ReleaseWindow(p *WindowPlan, k int) { s.adviseWindow(p, k, snapfile.AdviseDontNeed) }
