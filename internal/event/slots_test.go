package event

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// buildCampaignCollection is a campaign-shaped collection: every origin
// generates sequence numbers 0..packets-1, each packet is forwarded hop by
// hop down to sink node 1 and on to the server, a few packets are never
// logged and a tenth of the rows are lost. Origins and sequence numbers are
// dense, so the slot index takes dense mode.
func buildCampaignCollection(seed int64, origins, packets int) *Collection {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection()
	const sink = NodeID(1)
	t := int64(0)
	for seq := 0; seq < packets; seq++ {
		for o := NodeID(2); o < NodeID(2+origins); o++ {
			if rng.Intn(20) == 0 {
				continue
			}
			pkt := PacketID{Origin: o, Seq: uint32(seq)}
			add := func(e Event) {
				t += 1 + rng.Int63n(1000)
				e.Packet, e.Time = pkt, t
				if rng.Intn(10) != 0 {
					c.Add(e)
				}
			}
			add(Event{Node: o, Type: Gen, Sender: o})
			for cur := o; cur != sink; {
				next := NodeID(1 + rng.Intn(int(cur)-1))
				add(Event{Node: cur, Type: Trans, Sender: cur, Receiver: next})
				add(Event{Node: next, Type: Recv, Sender: cur, Receiver: next})
				add(Event{Node: cur, Type: AckRecvd, Sender: cur, Receiver: next})
				cur = next
			}
			add(Event{Node: Server, Type: ServerRecv, Sender: sink, Receiver: Server})
		}
		if seq%17 == 16 {
			c.Add(Event{Node: Server, Type: ServerDown, Time: t})
			c.Add(Event{Node: Server, Type: ServerUp, Time: t + 1})
		}
	}
	return c
}

// addPacketRows logs pkt at a few nodes, interleaved through the logs in the
// order packets are added.
func addPacketRows(c *Collection, rng *rand.Rand, pkt PacketID) {
	for k := 1 + rng.Intn(3); k > 0; k-- {
		n := NodeID(2 + rng.Intn(4))
		c.Add(Event{Node: n, Type: Recv, Sender: 9, Receiver: n, Packet: pkt, Time: rng.Int63n(1 << 40)})
	}
}

// buildEdgeDenseCollection is dense but sits on the uint32 edges: origin 0,
// and sequence ranges ending at MaxUint32 (the slot walk must stop there
// rather than wrap).
func buildEdgeDenseCollection() *Collection {
	rng := rand.New(rand.NewSource(41))
	c := NewCollection()
	for s := uint32(math.MaxUint32 - 20); ; s++ {
		addPacketRows(c, rng, PacketID{Origin: 0, Seq: s})
		addPacketRows(c, rng, PacketID{Origin: 3, Seq: s - 1000})
		if s == math.MaxUint32 {
			break
		}
	}
	for s := uint32(0); s < 20; s++ {
		addPacketRows(c, rng, PacketID{Origin: 2, Seq: s})
	}
	return c
}

// buildSeqGapCollection has a small dense origin range, but one origin's
// sequence numbers are spread across the whole uint32 range: the origin
// table fits, the per-origin sequence ranges do not.
func buildSeqGapCollection() *Collection {
	rng := rand.New(rand.NewSource(42))
	c := NewCollection()
	for s := uint32(0); s < 50; s++ {
		addPacketRows(c, rng, PacketID{Origin: 1, Seq: s})
		addPacketRows(c, rng, PacketID{Origin: 2, Seq: s * 87_654_321})
	}
	return c
}

// buildAdversarialCollection holds wire-level IDs no deployment assigns:
// origins 0 and 0xFFFFFFFD, sequence numbers 0 and MaxUint32, and one
// origin with huge sequence gaps.
func buildAdversarialCollection() *Collection {
	rng := rand.New(rand.NewSource(43))
	c := NewCollection()
	for _, o := range []NodeID{0, 0xFFFFFFFD} {
		for _, s := range []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32} {
			addPacketRows(c, rng, PacketID{Origin: o, Seq: s})
		}
	}
	for s := uint64(0); s <= math.MaxUint32; s += 1 << 26 {
		addPacketRows(c, rng, PacketID{Origin: 7, Seq: uint32(s)})
	}
	c.Add(Event{Node: Server, Type: ServerDown, Time: 5})
	return c
}

// fuzzCollection decodes fuzzer bytes into a collection: 10 bytes per row —
// logging node (one of six, including the server), type (any byte, so
// invalid and operational rows appear), and raw 32-bit origin and seq. Rows
// past 4096 are ignored to keep each input cheap.
func fuzzCollection(data []byte) *Collection {
	nodes := [...]NodeID{0, 1, 2, 3, 0xFFFFFFFD, Server}
	c := NewCollection()
	for i := 0; i+10 <= len(data) && i < 10*4096; i += 10 {
		n := nodes[int(data[i])%len(nodes)]
		c.Add(Event{
			Node:   n,
			Type:   Type(data[i+1] % byte(numTypes+1)),
			Packet: PacketID{Origin: NodeID(binary.LittleEndian.Uint32(data[i+2:])), Seq: binary.LittleEndian.Uint32(data[i+6:])},
			Time:   int64(i),
		})
	}
	return c
}

// fuzzRow encodes one fuzzCollection row.
func fuzzRow(node byte, t Type, o NodeID, s uint32) []byte {
	row := []byte{node, byte(t), 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(row[2:], uint32(o))
	binary.LittleEndian.PutUint32(row[6:], s)
	return row
}

// FuzzPartition holds Partition to the reference on arbitrary packet IDs,
// reaching both slot modes and the uint32 edges.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{})
	var dense, edges []byte
	for s := uint32(0); s < 8; s++ {
		dense = append(dense, fuzzRow(byte(s), Recv, 2, s)...)
		dense = append(dense, fuzzRow(byte(s+1), Trans, 3, s/2)...)
	}
	dense = append(dense, fuzzRow(5, ServerDown, 0, 0)...)
	f.Add(dense)
	for _, o := range []NodeID{0, 0xFFFFFFFD} {
		for _, s := range []uint32{0, math.MaxUint32} {
			edges = append(edges, fuzzRow(byte(o), Recv, o, s)...)
			edges = append(edges, fuzzRow(2, Gen, o, s)...)
		}
	}
	edges = append(edges, fuzzRow(1, Invalid, 7, 1)...)
	f.Add(edges)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCollection(data)
		checkPartitionMatchesReference(t, "fuzz", c)
		if got, want := MaxPacketSpread(c), referenceMaxPacketSpread(c); got != want {
			t.Fatalf("MaxPacketSpread = %d, want %d", got, want)
		}
	})
}

// buildScatteredCollection gives every packet random 32-bit origin and
// sequence numbers: a dense table over them would need billions of slots.
func buildScatteredCollection(seed int64, rows int) *Collection {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection()
	for c.TotalEvents() < rows {
		addPacketRows(c, rng, PacketID{Origin: NodeID(rng.Uint32()), Seq: rng.Uint32()})
	}
	return c
}

// TestPartitionSparseMemoryIsLinearInRows pins the slotDensity bound from the
// outside: on IDs scattered over the whole uint32 space, Partition's bytes
// allocated per row stay a small constant, at two input sizes.
func TestPartitionSparseMemoryIsLinearInRows(t *testing.T) {
	for _, rows := range []int{5000, 50000} {
		c := buildScatteredCollection(int64(rows), rows)
		if !newSlotIndex(c, c.Nodes()).sparse {
			t.Fatalf("%d rows: scattered IDs did not take sparse mode", rows)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		views, _ := Partition(c)
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.TotalEvents())
		t.Logf("%d rows, %d views: %.0f B/row", c.TotalEvents(), len(views), perRow)
		// Arena row (29 B) + a view struct, pointer and span for nearly
		// every row, plus the 8 B sort key and 12 B of per-slot state.
		if perRow > 200 {
			t.Errorf("%d rows: Partition allocated %.0f B/row over %d views; want O(rows)", rows, perRow, len(views))
		}
	}
}

// referenceMaxPacketSpread is MaxPacketSpread's former map-based
// implementation, kept as the oracle for the slot-index version.
func referenceMaxPacketSpread(c *Collection) int64 {
	type span struct{ min, max int64 }
	spans := make(map[PacketID]span)
	for _, n := range c.Nodes() {
		l := c.Logs[n]
		for i := 0; i < l.Len(); i++ {
			e := l.At(i)
			if !e.Type.PacketScoped() {
				continue
			}
			s, ok := spans[e.Packet]
			if !ok {
				s = span{min: e.Time, max: e.Time}
			}
			s.min, s.max = min(s.min, e.Time), max(s.max, e.Time)
			spans[e.Packet] = s
		}
	}
	horizon := int64(0)
	//refill:allow maprange — max reduction; order-independent
	for _, s := range spans {
		if d := s.max - s.min; d > horizon {
			horizon = d
		}
	}
	return horizon
}

func TestMaxPacketSpreadMatchesReference(t *testing.T) {
	for _, tc := range partitionCases() {
		got, want := MaxPacketSpread(tc.c), referenceMaxPacketSpread(tc.c)
		if got != want {
			t.Errorf("%s: MaxPacketSpread = %d, want %d", tc.name, got, want)
		}
		if want == 0 {
			t.Errorf("%s: zero spread; the case does not exercise the reduction", tc.name)
		}
	}
	if got := MaxPacketSpread(NewCollection()); got != 0 {
		t.Errorf("empty collection: MaxPacketSpread = %d, want 0", got)
	}
}
