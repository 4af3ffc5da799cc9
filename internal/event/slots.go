package event

import (
	"math"
	"slices"
)

// slotDensity is the slot index's memory bound: the dense table may hold at
// most this many entries (origin entries plus packet slots) per
// packet-scoped row. Above it the index ranks packets instead, so per-slot
// state never outgrows the rows it describes, whatever origin and sequence
// numbers arrive off the wire. Per-slot state costs 12-16 bytes (the
// partitioner's slotState, or MaxPacketSpread's min/max times), so a bound
// of 2 keeps the slot table at or below ~32 bytes per row — about the size
// of the arena row itself. Campaigns sit far below it: every packet
// contributes one row per hop, and per-origin sequence numbers are near
// dense, so slots ≈ packets ≪ rows.
const slotDensity = 2

// originRange is one origin's contiguous block of dense slots: sequence
// numbers lo..hi map to slots base..base+(hi-lo). lo > hi marks an origin
// with no packet-scoped rows.
type originRange struct {
	base   int32
	lo, hi uint32
}

// slotIndex assigns every packet ID of a collection a dense slot number, in
// (origin, seq) order, without hashing. Dense mode lays each origin's
// sequence range out end to end — slot = base[origin] + seq − lo[origin],
// two loads and an add. When that table would break the slotDensity bound
// (sparse origins, huge sequence gaps) it switches to sparse mode: slots are
// ranks in the sorted distinct packet IDs, found by binary search. Only the
// slot function differs; both modes number slots in packet-ID order, so
// consumers lay out per-slot state identically.
type slotIndex struct {
	oMin    NodeID
	origins []originRange // dense mode: indexed by origin − oMin
	keys    []uint64      // sparse mode: sorted distinct origin<<32 | seq
	sparse  bool
	slots   int // number of slots (dense: may include empty ones)
	rows    int // packet-scoped rows indexed
}

// packetKey packs a packet ID into a uint64 whose order is packet-ID order.
func packetKey(o NodeID, s uint32) uint64 { return uint64(o)<<32 | uint64(s) }

// newSlotIndex builds the index over the packet-scoped rows of the given
// nodes' logs with one range pass: origin bounds first, then each origin's
// sequence bounds, all sized in 64-bit arithmetic (hi−lo+1 overflows uint32
// for the full sequence range).
func newSlotIndex(c *Collection, nodes []NodeID) slotIndex {
	var ix slotIndex
	oMin, oMax := NodeID(math.MaxUint32), NodeID(0)
	for _, n := range nodes {
		b := &c.Logs[n].batch
		for i, t := range b.typ {
			if !t.PacketScoped() {
				continue
			}
			o := b.origin[i]
			oMin, oMax = min(oMin, o), max(oMax, o)
			ix.rows++
		}
	}
	if ix.rows == 0 {
		return ix
	}
	limit := slotDensity * uint64(ix.rows)
	if limit > math.MaxInt32 {
		limit = math.MaxInt32
	}
	oSpan := uint64(oMax-oMin) + 1
	if oSpan <= limit {
		ix.oMin = oMin
		ix.origins = make([]originRange, oSpan)
		for k := range ix.origins {
			ix.origins[k].lo = math.MaxUint32
		}
		for _, n := range nodes {
			b := &c.Logs[n].batch
			for i, t := range b.typ {
				if !t.PacketScoped() {
					continue
				}
				r := &ix.origins[b.origin[i]-oMin]
				s := b.seq[i]
				r.lo, r.hi = min(r.lo, s), max(r.hi, s)
			}
		}
		size := oSpan
		for k := range ix.origins {
			r := &ix.origins[k]
			if r.lo > r.hi {
				continue
			}
			r.base = int32(size - oSpan)
			if size += uint64(r.hi-r.lo) + 1; size > limit {
				break
			}
		}
		if size <= limit {
			ix.slots = int(size - oSpan)
			return ix
		}
		ix.origins = nil
	}
	ix.sparse = true
	ix.keys = make([]uint64, 0, ix.rows)
	for _, n := range nodes {
		b := &c.Logs[n].batch
		for i, t := range b.typ {
			if t.PacketScoped() {
				ix.keys = append(ix.keys, packetKey(b.origin[i], b.seq[i]))
			}
		}
	}
	slices.Sort(ix.keys)
	ix.keys = slices.Compact(ix.keys)
	ix.slots = len(ix.keys)
	return ix
}

// slot returns the slot of packet (o, s), which must have been indexed.
func (ix *slotIndex) slot(o NodeID, s uint32) int32 {
	if !ix.sparse {
		r := ix.origins[o-ix.oMin]
		return r.base + int32(s-r.lo)
	}
	return ix.rank(packetKey(o, s))
}

// rank is the sparse slot function: the packet's position among the sorted
// distinct packet IDs.
func (ix *slotIndex) rank(key uint64) int32 {
	i, _ := slices.BinarySearch(ix.keys, key)
	return int32(i)
}

// eachSlot calls f for every slot in ascending order with its packet ID. In
// dense mode that includes slots no row mapped to; callers skip those by
// their own per-slot counts.
func (ix *slotIndex) eachSlot(f func(slot int32, pkt PacketID)) {
	if ix.sparse {
		for i, k := range ix.keys {
			f(int32(i), PacketID{Origin: NodeID(k >> 32), Seq: uint32(k)})
		}
		return
	}
	for k, r := range ix.origins {
		if r.lo > r.hi {
			continue
		}
		o := ix.oMin + NodeID(k)
		for s := uint64(r.lo); s <= uint64(r.hi); s++ {
			f(r.base+int32(s-uint64(r.lo)), PacketID{Origin: o, Seq: uint32(s)})
		}
	}
}
