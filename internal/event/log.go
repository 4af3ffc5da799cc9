package event

import (
	"fmt"
	"sort"
)

// Log is the ordered sequence of events recorded at one node. The order is
// the order the node logged them in — the only ordering information REFILL
// assumes (local logs are append-only, so per-node order is trustworthy even
// when clocks are not). Storage is a structure-of-arrays Batch: the hot
// fixed-size fields live in flat pointer-free columns, Info strings in a cold
// side table, so campaign-scale logs cost the GC almost nothing to scan.
type Log struct {
	Node  NodeID
	batch Batch
}

// Append adds an event to the log, stamping its Node field.
func (l *Log) Append(e Event) {
	e.Node = l.Node
	l.batch.Append(e)
}

// Len returns the number of events in the log.
func (l *Log) Len() int { return l.batch.Len() }

// At materializes the i'th event of the log.
func (l *Log) At(i int) Event { return l.batch.At(i) }

// Batch exposes the log's columnar storage for callers that stream columns
// (partitioners, codecs) or need to bypass the Node stamping of Append.
func (l *Log) Batch() *Batch { return &l.batch }

// Events materializes the whole log as a fresh []Event (a copy — mutating it
// does not affect the log). Analysis paths iterate At/Batch instead.
func (l *Log) Events() []Event { return l.batch.Events() }

// Clone returns a deep copy of the log.
func (l *Log) Clone() Log {
	return Log{Node: l.Node, batch: l.batch.Clone()}
}

// Validate checks that every event belongs to this node and is well formed.
func (l *Log) Validate() error {
	for i := 0; i < l.batch.Len(); i++ {
		e := l.batch.At(i)
		if e.Node != l.Node {
			return fmt.Errorf("event: log for node %v contains event for node %v at index %d", l.Node, e.Node, i)
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event: log index %d: %w", i, err)
		}
	}
	return nil
}

// Collection is a set of per-node logs, as retrieved from the network. It is
// the input to the REFILL pipeline. Logs may be missing for some nodes
// entirely (node failure) and individual events may be missing inside each
// log (lossy logging / lossy collection).
type Collection struct {
	Logs map[NodeID]*Log
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{Logs: make(map[NodeID]*Log)}
}

// Log returns the log for node n, creating it if needed.
func (c *Collection) Log(n NodeID) *Log {
	l, ok := c.Logs[n]
	if !ok {
		l = &Log{Node: n}
		c.Logs[n] = l
	}
	return l
}

// Add appends an event to the log of the node named in the event.
func (c *Collection) Add(e Event) {
	c.Log(e.Node).Append(e)
}

// Nodes returns the node IDs that have logs, in ascending order, for
// deterministic iteration.
func (c *Collection) Nodes() []NodeID {
	nodes := make([]NodeID, 0, len(c.Logs))
	//refill:allow maprange — key collection; the sort below imposes the order
	for n := range c.Logs {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// TotalEvents returns the number of events across all logs.
func (c *Collection) TotalEvents() int {
	total := 0
	//refill:allow maprange — commutative sum; order-independent
	for _, l := range c.Logs {
		total += l.Len()
	}
	return total
}

// Validate checks every contained log.
func (c *Collection) Validate() error {
	for _, n := range c.Nodes() {
		if err := c.Logs[n].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ResetLogs empties every log in place, keeping the per-node column
// capacity — the resident session reuses one window collection across
// retirements this way, so steady-state windows append into already-sized
// columns instead of regrowing fresh ones every Advance.
func (c *Collection) ResetLogs() {
	//refill:allow maprange — in-place per-log reset; no ordered output is produced
	for _, l := range c.Logs {
		l.batch.Reset()
	}
}

// Clone returns a deep copy of the collection.
func (c *Collection) Clone() *Collection {
	out := NewCollection()
	//refill:allow maprange — map-to-map copy; no ordered output is produced
	for n, l := range c.Logs {
		cl := l.Clone()
		out.Logs[n] = &cl
	}
	return out
}

// ViewSpan is one node's contiguous run of rows inside a PacketView's batch:
// the node's events about the packet, in log order, at rows [Start, End).
type ViewSpan struct {
	Node       NodeID
	Start, End int32
}

// PacketView is the per-packet slice of a collection: for one packet, the
// ordered sub-logs of every node that recorded (or should have recorded)
// events about it. The inference engine runs on one PacketView at a time.
//
// Storage is columnar: the view's events live in a (possibly shared) Batch,
// and Spans lists each node's contiguous row range, exactly one span per
// node, ascending by node ID. The partitioners carve all views of a
// collection out of ONE shared batch arena, so partitioning a million-event
// campaign performs a handful of allocations instead of several per packet.
type PacketView struct {
	Packet PacketID
	batch  *Batch
	spans  []ViewSpan
}

// NewPacketView builds a self-contained view from per-node event slices,
// preserving each node's order — the construction path for tests and for
// callers that assemble views by hand. Nodes are laid out in ascending order,
// matching the partitioners' invariant.
func NewPacketView(pkt PacketID, perNode map[NodeID][]Event) *PacketView {
	nodes := make([]NodeID, 0, len(perNode))
	total := 0
	//refill:allow maprange — key collection + commutative count; the sort below imposes the order
	for n, evs := range perNode {
		nodes = append(nodes, n)
		total += len(evs)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	v := &PacketView{Packet: pkt, batch: &Batch{}, spans: make([]ViewSpan, 0, len(nodes))}
	v.batch.Grow(total)
	for _, n := range nodes {
		evs := perNode[n]
		if len(evs) == 0 {
			continue
		}
		start := int32(v.batch.Len())
		for _, e := range evs {
			v.batch.Append(e)
		}
		v.spans = append(v.spans, ViewSpan{Node: n, Start: start, End: int32(v.batch.Len())})
	}
	return v
}

// Spans returns the view's per-node row ranges, ascending by node ID.
// The slice is the view's own storage — callers must not mutate it.
func (v *PacketView) Spans() []ViewSpan { return v.spans }

// EventAt materializes the event at batch row i (an index taken from a span).
//
//refill:noalloc
//refill:inline — the engine's per-committed-row fetch
func (v *PacketView) EventAt(i int) Event { return v.batch.At(i) }

// Batch exposes the view's columnar storage. Rows outside the view's spans
// belong to other packets (the batch is a shared arena).
func (v *PacketView) Batch() *Batch { return v.batch }

// NodeCount returns the number of nodes with events in the view.
func (v *PacketView) NodeCount() int { return len(v.spans) }

// Nodes returns the nodes with events in the view, ascending.
func (v *PacketView) Nodes() []NodeID {
	nodes := make([]NodeID, len(v.spans))
	for i, sp := range v.spans {
		nodes[i] = sp.Node
	}
	return nodes
}

// NodeEvents materializes node n's events about the packet, in log order
// (nil if the node logged none).
func (v *PacketView) NodeEvents(n NodeID) []Event {
	for _, sp := range v.spans {
		if sp.Node != n {
			continue
		}
		out := make([]Event, 0, sp.End-sp.Start)
		for i := sp.Start; i < sp.End; i++ {
			out = append(out, v.batch.At(int(i)))
		}
		return out
	}
	return nil
}

// PerNodeEvents materializes the whole view as a node -> events map — the
// adjacency the pre-SoA PacketView stored directly. Tests and baselines use
// it; the engine reads spans.
func (v *PacketView) PerNodeEvents() map[NodeID][]Event {
	out := make(map[NodeID][]Event, len(v.spans))
	for _, sp := range v.spans {
		out[sp.Node] = v.NodeEvents(sp.Node)
	}
	return out
}

// Events materializes every event in the view in span order (per-node log
// order within each span).
func (v *PacketView) Events() []Event {
	out := make([]Event, 0, v.TotalEvents())
	for _, sp := range v.spans {
		for i := sp.Start; i < sp.End; i++ {
			out = append(out, v.batch.At(int(i)))
		}
	}
	return out
}

// TotalEvents returns the number of events in the view.
func (v *PacketView) TotalEvents() int {
	total := 0
	for _, sp := range v.spans {
		total += int(sp.End - sp.Start)
	}
	return total
}

// viewLayout is the partitioners' shared machinery. A slot index numbers
// every packet in packet-ID order; one counting scan measures, per slot, the
// event count and the number of (packet, node) spans; alloc carves every
// view's rows and spans out of single arenas in slot order, so views come out
// already sorted and laid out front to back; the fill scan then moves each
// row to its slot's next arena row. No row is hashed — each scan recomputes
// a row's slot arithmetically — and the fill scan touches only compact
// per-slot state, never the PacketView structs.
type viewLayout struct {
	ix    slotIndex
	slots []slotState
	// last, kept only for StreamPartition, is each slot's global scan
	// position of its final event.
	last   []int32
	nviews int // non-empty slots
	// hasInfo records whether the sizing scan saw any packet-scoped event
	// carrying a non-empty Info. If so, alloc gives the arena a dense info
	// column instead of the lazy map: map inserts during the fill pass
	// would race with concurrent readers of already-emitted views
	// (StreamPartition), whereas distinct-index slice writes cannot.
	hasInfo bool

	arena *Batch
	spans []ViewSpan // span arena, carved into the views' span slices
	views []*PacketView

	// Fill-scan scratch: the current chunk's destination rows, the slots
	// whose span the current node opened, StreamPartition's scan position
	// and the slots the current chunk completed.
	dst     []int32
	touched []int32
	pos     int32
	done    []int32
}

// slotState is one slot's partition state. The sizing scan counts rows and
// spans; alloc turns those counts into the slot's cursors into the row and
// span arenas. node is 1 + the index of the last node that touched the slot
// (sizing), then of the node whose span is open (fill; 0 when none is).
type slotState struct {
	row  int32 // sizing: events; fill: next arena row
	span int32 // sizing: spans; fill: next span
	node int32
	view int32 // index into views, set by alloc
}

// newViewLayout indexes the packets of c's logs (visited in nodes order) and
// runs the counting scan; trackLast additionally records every slot's final
// scan position for StreamPartition.
func newViewLayout(c *Collection, nodes []NodeID, trackLast bool) *viewLayout {
	ly := &viewLayout{ix: newSlotIndex(c, nodes)}
	ly.slots = make([]slotState, ly.ix.slots)
	if trackLast {
		ly.last = make([]int32, ly.ix.slots)
	}
	pos := int32(0)
	for ni, n := range nodes {
		b := &c.Logs[n].batch
		withInfo := b.info != nil || b.infoCol != nil
		for i, t := range b.typ {
			if !t.PacketScoped() {
				continue
			}
			s := ly.ix.slot(b.origin[i], b.seq[i])
			st := &ly.slots[s]
			if st.row == 0 {
				ly.nviews++
			}
			st.row++
			if st.node != int32(ni+1) {
				st.node = int32(ni + 1)
				st.span++
			}
			if trackLast {
				ly.last[s] = pos
				pos++
			}
			if withInfo && !ly.hasInfo && b.Info(i) != "" {
				ly.hasInfo = true
			}
		}
	}
	return ly
}

// alloc builds the arena batch, the span arena and the view structs in slot
// (packet-ID) order, and turns every slot's counts into its fill cursors.
func (ly *viewLayout) alloc() {
	ly.arena = &Batch{}
	if ly.hasInfo {
		ly.arena.infoCol = make([]string, ly.ix.rows)
	}
	ly.arena.Resize(ly.ix.rows)
	totalSpans := 0
	for _, st := range ly.slots {
		totalSpans += int(st.span)
	}
	ly.spans = make([]ViewSpan, totalSpans)
	structs := make([]PacketView, ly.nviews)
	ly.views = make([]*PacketView, ly.nviews)
	ly.dst = make([]int32, fillChunk)
	row, span, vi := int32(0), int32(0), int32(0)
	ly.ix.eachSlot(func(s int32, pkt PacketID) {
		st := &ly.slots[s]
		if st.row == 0 {
			return
		}
		end := span + st.span
		structs[vi] = PacketView{Packet: pkt, batch: ly.arena, spans: ly.spans[span:end:end]}
		ly.views[vi] = &structs[vi]
		n := st.row
		*st = slotState{row: row, span: span, view: vi}
		row, span, vi = row+n, end, vi+1
	})
}

// fillChunk is the number of rows fill places before moving them: it bounds
// the destination buffer at 16 KiB while amortizing the per-column passes.
const fillChunk = 4096

// fill moves node n's rows (scan index ni) into the arena and returns ops
// with the node's operational rows appended. Each chunk of rows is placed —
// every packet-scoped row claims its slot's next arena row — and then moved
// one column at a time. With emit (StreamPartition), every view whose final
// row the chunk moved is closed and emitted right after the move, so an
// emitted view is never written again.
func (ly *viewLayout) fill(b *Batch, n NodeID, ni int, ops []Event, emit func(*PacketView)) []Event {
	ly.touched = ly.touched[:0]
	for lo := 0; lo < len(b.typ); lo += fillChunk {
		dst := ly.dst[:min(fillChunk, len(b.typ)-lo)]
		ly.done = ly.done[:0]
		for k := range dst {
			i := lo + k
			if !b.typ[i].PacketScoped() {
				ops = append(ops, b.At(i))
				dst[k] = -1
				continue
			}
			s := ly.ix.slot(b.origin[i], b.seq[i])
			dst[k] = ly.place(s, n, ni)
			if emit != nil {
				if ly.pos == ly.last[s] {
					ly.done = append(ly.done, s)
				}
				ly.pos++
			}
		}
		ly.arena.scatterFrom(b, lo, dst)
		for _, s := range ly.done {
			ly.closeSpan(s)
			emit(ly.views[ly.slots[s].view])
		}
	}
	for _, s := range ly.touched {
		if ly.slots[s].node != 0 {
			ly.closeSpan(s)
		}
	}
	return ops
}

// place claims slot s's next arena row for a row of node n (scan index ni),
// opening the slot's span for n first if none is open.
func (ly *viewLayout) place(s int32, n NodeID, ni int) int32 {
	st := &ly.slots[s]
	if st.node != int32(ni+1) {
		st.node = int32(ni + 1)
		ly.spans[st.span] = ViewSpan{Node: n, Start: st.row}
		st.span++
		ly.touched = append(ly.touched, s)
	}
	st.row++
	return st.row - 1
}

// closeSpan commits the end row of slot s's open span and marks it closed.
func (ly *viewLayout) closeSpan(s int32) {
	st := &ly.slots[s]
	ly.spans[st.span-1].End = st.row
	st.node = 0
}

// Partition splits a collection into per-packet views, preserving per-node
// event order within each view. Non-packet-scoped events (server up/down) are
// returned separately. Views are ordered by packet ID (origin, then seq) for
// deterministic processing.
//
// All views share one columnar batch arena sized by a counting pre-pass and
// laid out in packet-ID order (see viewLayout), so the views come out sorted
// with no sort, and the whole partition performs a fixed handful of arena and
// slot-table allocations plus the operational slice's growth — not several
// per packet.
func Partition(c *Collection) (views []*PacketView, operational []Event) {
	nodes := c.Nodes()
	ly := newViewLayout(c, nodes, false)
	ly.alloc()
	for ni, n := range nodes {
		operational = ly.fill(&c.Logs[n].batch, n, ni, operational, nil)
	}
	sort.Slice(operational, func(i, j int) bool { return operational[i].Time < operational[j].Time })
	return ly.views, operational
}

// StreamPartition partitions like Partition but hands each PacketView to emit
// the moment its last event has been scanned, so packet analysis can overlap
// with the remainder of the partitioning scan. The counting pre-pass
// additionally records every packet's last-touch position; the fill pass
// emits a view once the chunk holding that position has been moved into the
// arena (at most fillChunk rows later). Views are emitted in completion
// order (deterministic for a given collection, but NOT packet-ID order —
// callers that need the Partition order must reorder). Operational events are
// returned once the scan finishes, sorted by time.
//
// Emitted views reference the shared batch arena; their rows are never
// written after emit, so emit may safely hand the view to a worker. That
// includes Info: when the pre-pass sees any packet-scoped event carrying a
// non-empty Info, the arena stores info in a dense per-row column rather than
// the lazy map, so filling later views never touches memory an emitted view
// reads.
func StreamPartition(c *Collection, emit func(*PacketView)) (operational []Event) {
	nodes := c.Nodes()
	ly := newViewLayout(c, nodes, true)
	ly.alloc()
	for ni, n := range nodes {
		operational = ly.fill(&c.Logs[n].batch, n, ni, operational, emit)
	}
	sort.Slice(operational, func(i, j int) bool { return operational[i].Time < operational[j].Time })
	return operational
}

// OperationalEvents extracts the non-packet-scoped events (server up/down)
// from a collection, sorted by time — the same slice Partition returns as its
// second result, without building any views. A single pass over the dense
// type columns, so callers that need the outage schedule BEFORE analysis
// (the fused streaming diagnosis) can afford it up front.
func OperationalEvents(c *Collection) []Event {
	var ops []Event
	for _, n := range c.Nodes() {
		b := &c.Logs[n].batch
		for i := 0; i < len(b.typ); i++ {
			if !b.typ[i].PacketScoped() {
				ops = append(ops, b.At(i))
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Time < ops[j].Time })
	return ops
}

// MergeByTime flattens a collection into a single slice ordered by the Time
// field, breaking ties by node then by log position. This is ONLY valid for
// ground-truth collections whose Time is a global clock; it exists for the
// simulator's ground-truth recorder and for baselines, never for the engine.
func MergeByTime(c *Collection) []Event {
	type indexed struct {
		e   Event
		pos int
	}
	var all []indexed
	for _, n := range c.Nodes() {
		l := c.Logs[n]
		for i := 0; i < l.Len(); i++ {
			all = append(all, indexed{l.At(i), i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.e.Time != b.e.Time {
			return a.e.Time < b.e.Time
		}
		if a.e.Node != b.e.Node {
			return a.e.Node < b.e.Node
		}
		return a.pos < b.pos
	})
	out := make([]Event, len(all))
	for i, x := range all {
		out[i] = x.e
	}
	return out
}
