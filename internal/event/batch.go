package event

// Batch is structure-of-arrays storage for event records: every fixed-size
// field of Event lives in its own flat column, and the rarely-used free-form
// Info strings are kept in a cold side table keyed by row. The hot columns
// contain no pointers, so a batch holding millions of events contributes
// almost nothing to GC scan work — the property that makes campaign-scale
// collections cheap to keep resident. A zero Batch is empty and ready to use.
//
// Batch is the backing store of Log (per-node collection storage) and
// PacketView (the partitioner's per-packet views); Event remains the unit the
// rest of the system passes around — At materializes one on demand.
type Batch struct {
	node     []NodeID
	typ      []Type
	sender   []NodeID
	receiver []NodeID
	origin   []NodeID
	seq      []uint32
	time     []int64
	// info is the cold side table: row index -> Info string. It is nil
	// until the first non-empty Info is stored, which on simulator-driven
	// campaigns is never — the hot path allocates no map.
	info map[int32]string
	// infoCol is the dense alternative to the info map, used for shared
	// partition arenas that are filled while already-emitted rows are read
	// concurrently: writing one slice element never touches another, so
	// distinct-index fills race with nothing, whereas any map insert does.
	// Allocated only by viewLayout.alloc when the counting pre-pass saw a
	// non-empty Info; when non-nil it supersedes the map entirely.
	infoCol []string
	// ro marks a snapshot-mapped batch: its columns alias a read-only file
	// mapping, so every mutating path panics instead of faulting on a
	// protected page (or silently corrupting the portable fallback buffer
	// other readers share). Clone is the escape hatch — the copy is
	// writable.
	ro bool
}

// ReadOnly reports whether the batch is snapshot-mapped and immutable.
func (b *Batch) ReadOnly() bool { return b.ro }

// mutable panics when the batch is snapshot-mapped. Every mutating method
// calls it first; the panic converts what would be a SIGSEGV on the mapped
// pages into a diagnosable error at the API boundary.
func (b *Batch) mutable() {
	if b.ro {
		panic("event: batch is read-only (snapshot-mapped); Clone it to mutate")
	}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.typ) }

// Grow reserves capacity for n additional rows without changing Len. Each
// column is checked independently: append's size-class rounding gives byte
// columns more slack than word columns, so one column's capacity says nothing
// about the others'.
func (b *Batch) Grow(n int) {
	if n <= 0 {
		return
	}
	b.mutable()
	want := len(b.typ) + n
	growNodes := func(s []NodeID) []NodeID {
		if cap(s) >= want {
			return s
		}
		out := make([]NodeID, len(s), want)
		copy(out, s)
		return out
	}
	b.node = growNodes(b.node)
	b.sender = growNodes(b.sender)
	b.receiver = growNodes(b.receiver)
	b.origin = growNodes(b.origin)
	if cap(b.seq) < want {
		seq := make([]uint32, len(b.seq), want)
		copy(seq, b.seq)
		b.seq = seq
	}
	if cap(b.time) < want {
		time := make([]int64, len(b.time), want)
		copy(time, b.time)
		b.time = time
	}
	if cap(b.typ) < want {
		typ := make([]Type, len(b.typ), want)
		copy(typ, b.typ)
		b.typ = typ
	}
	if b.infoCol != nil && cap(b.infoCol) < want {
		info := make([]string, len(b.infoCol), want)
		copy(info, b.infoCol)
		b.infoCol = info
	}
}

// Resize sets the row count to n, zero-filling new rows. Existing rows are
// preserved up to min(Len, n). The partitioners use it to allocate an arena
// once and fill rows by index.
func (b *Batch) Resize(n int) {
	b.mutable()
	if n > len(b.typ) {
		b.Grow(n - len(b.typ))
	}
	b.node = b.node[:n]
	b.typ = b.typ[:n]
	b.sender = b.sender[:n]
	b.receiver = b.receiver[:n]
	b.origin = b.origin[:n]
	b.seq = b.seq[:n]
	b.time = b.time[:n]
	if b.infoCol != nil {
		b.infoCol = b.infoCol[:n]
	}
}

// Append adds one event as a new row.
func (b *Batch) Append(e Event) {
	b.mutable()
	b.node = append(b.node, e.Node)
	b.typ = append(b.typ, e.Type)
	b.sender = append(b.sender, e.Sender)
	b.receiver = append(b.receiver, e.Receiver)
	b.origin = append(b.origin, e.Packet.Origin)
	b.seq = append(b.seq, e.Packet.Seq)
	b.time = append(b.time, e.Time)
	if b.infoCol != nil {
		b.infoCol = append(b.infoCol, e.Info)
		return
	}
	if e.Info != "" {
		if b.info == nil {
			b.info = make(map[int32]string)
		}
		b.info[int32(len(b.typ)-1)] = e.Info
	}
}

// Set overwrites row i with e. The row must already exist (see Resize).
func (b *Batch) Set(i int, e Event) {
	b.mutable()
	b.node[i] = e.Node
	b.typ[i] = e.Type
	b.sender[i] = e.Sender
	b.receiver[i] = e.Receiver
	b.origin[i] = e.Packet.Origin
	b.seq[i] = e.Packet.Seq
	b.time[i] = e.Time
	if b.infoCol != nil {
		b.infoCol[i] = e.Info
		return
	}
	if e.Info != "" {
		if b.info == nil {
			b.info = make(map[int32]string)
		}
		b.info[int32(i)] = e.Info
	} else if b.info != nil {
		delete(b.info, int32(i))
	}
}

// scatterFrom copies src rows lo, lo+1, ... into rows dst[0], dst[1], ... of
// b, skipping negative destinations — the partitioners' bulk move, which
// avoids materializing Events in between. It moves one column at a time, so
// each pass writes a single column's scattered destinations. Info is copied
// only into a dense info column, whose distinct-index writes are safe
// against concurrent readers of other rows: the partitioners give the arena
// one whenever any moved row carries Info.
func (b *Batch) scatterFrom(src *Batch, lo int, dst []int32) {
	b.mutable()
	scatter(b.node, src.node[lo:], dst)
	scatter(b.typ, src.typ[lo:], dst)
	scatter(b.sender, src.sender[lo:], dst)
	scatter(b.receiver, src.receiver[lo:], dst)
	scatter(b.origin, src.origin[lo:], dst)
	scatter(b.seq, src.seq[lo:], dst)
	scatter(b.time, src.time[lo:], dst)
	if b.infoCol != nil {
		for k, d := range dst {
			if d >= 0 {
				b.infoCol[d] = src.Info(lo + k)
			}
		}
	}
}

// scatter sets to[dst[k]] = from[k] for every non-negative dst[k].
func scatter[T any](to, from []T, dst []int32) {
	from = from[:len(dst)]
	for k, d := range dst {
		if d >= 0 {
			to[d] = from[k]
		}
	}
}

// At materializes row i as an Event.
//
//refill:noalloc
//refill:inline — called per committed row on the flow output path
func (b *Batch) At(i int) Event {
	e := Event{
		Node:     b.node[i],
		Type:     b.typ[i],
		Sender:   b.sender[i],
		Receiver: b.receiver[i],
		Packet:   PacketID{Origin: b.origin[i], Seq: b.seq[i]},
		Time:     b.time[i],
	}
	if b.infoCol != nil {
		e.Info = b.infoCol[i]
	} else if b.info != nil {
		e.Info = b.info[int32(i)]
	}
	return e
}

// Node returns row i's logging node.
func (b *Batch) Node(i int) NodeID { return b.node[i] }

// Type returns row i's event type.
func (b *Batch) Type(i int) Type { return b.typ[i] }

// Sender returns row i's sender.
func (b *Batch) Sender(i int) NodeID { return b.sender[i] }

// Receiver returns row i's receiver.
func (b *Batch) Receiver(i int) NodeID { return b.receiver[i] }

// Packet returns row i's packet identity.
func (b *Batch) Packet(i int) PacketID {
	return PacketID{Origin: b.origin[i], Seq: b.seq[i]}
}

// Time returns row i's timestamp.
func (b *Batch) Time(i int) int64 { return b.time[i] }

// Info returns row i's free-form info ("" for the vast majority of rows).
func (b *Batch) Info(i int) string {
	if b.infoCol != nil {
		return b.infoCol[i]
	}
	if b.info == nil {
		return ""
	}
	return b.info[int32(i)]
}

// Reset empties the batch, keeping column capacity.
func (b *Batch) Reset() {
	b.mutable()
	b.Resize(0)
	b.info = nil
	b.infoCol = nil
}

// Clone returns a deep copy.
func (b *Batch) Clone() Batch {
	out := Batch{
		node:     append([]NodeID(nil), b.node...),
		typ:      append([]Type(nil), b.typ...),
		sender:   append([]NodeID(nil), b.sender...),
		receiver: append([]NodeID(nil), b.receiver...),
		origin:   append([]NodeID(nil), b.origin...),
		seq:      append([]uint32(nil), b.seq...),
		time:     append([]int64(nil), b.time...),
	}
	if b.infoCol != nil {
		out.infoCol = append([]string(nil), b.infoCol...)
	} else if len(b.info) > 0 {
		out.info = make(map[int32]string, len(b.info))
		//refill:allow maprange — map-to-map copy; no ordered output is produced
		for k, v := range b.info {
			out.info[k] = v
		}
	}
	return out
}

// Events materializes every row, in order, as a fresh []Event. It exists for
// tests, tools and format shims — the analysis paths read columns directly.
func (b *Batch) Events() []Event {
	out := make([]Event, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}
