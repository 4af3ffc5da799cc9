package event

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// referenceFormat is the pre-AppendEvent text rendering, kept as the oracle:
// field String() methods joined by spaces, exactly as the original
// strings.Builder writer produced.
func referenceFormat(e Event) string {
	var b strings.Builder
	b.WriteString(e.Node.String())
	b.WriteByte(' ')
	b.WriteString(e.Type.String())
	b.WriteByte(' ')
	b.WriteString(e.Sender.String())
	b.WriteByte(' ')
	b.WriteString(e.Receiver.String())
	b.WriteByte(' ')
	b.WriteString(e.Packet.String())
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(e.Time, 10))
	if e.Info != "" {
		b.WriteByte(' ')
		b.WriteString(e.Info)
	}
	return b.String()
}

func codecEvents() []Event {
	return []Event{
		{Node: 2, Type: Recv, Sender: 1, Receiver: 2, Packet: PacketID{Origin: 1, Seq: 17}, Time: 120034},
		{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: PacketID{Origin: 1, Seq: 17}, Time: 119800, Info: "attempt=3"},
		{Node: Server, Type: ServerDown, Time: -42},
		{Node: Server, Type: ServerRecv, Sender: 9, Receiver: Server, Packet: PacketID{Origin: 4, Seq: 4294967295}, Time: 1 << 40},
		{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 0}, Time: 0},
		{Node: 7, Type: Done, Sender: 7, Packet: PacketID{Origin: 7, Seq: 3}, Time: 5, Info: "round 2 of 3"},
	}
}

// TestAppendEventMatchesReference pins AppendEvent (and FormatEvent on top of
// it) byte for byte to the String()-based rendering it replaced, including
// pseudo-node names, negative and huge times, max sequence numbers and
// multi-word Info payloads.
func TestAppendEventMatchesReference(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, e := range codecEvents() {
		want := referenceFormat(e)
		buf = AppendEvent(buf[:0], e)
		if string(buf) != want {
			t.Errorf("AppendEvent = %q, want %q", buf, want)
		}
		if got := FormatEvent(e); got != want {
			t.Errorf("FormatEvent = %q, want %q", got, want)
		}
	}
}

// TestAppendEventRoundTrips checks ParseEvent inverts the append writer.
func TestAppendEventRoundTrips(t *testing.T) {
	for _, e := range codecEvents() {
		if !e.Type.PacketScoped() {
			continue // operational events round-trip their zero PacketID as "-:0"
		}
		got, err := ParseEvent(string(AppendEvent(nil, e)))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != e {
			t.Errorf("round trip = %+v, want %+v", got, e)
		}
	}
}

// TestWriteCollectionHeaderUnchanged pins the per-node header line the
// buffer-reusing writer emits to the old Fprintf format.
func TestWriteCollectionHeaderUnchanged(t *testing.T) {
	c := NewCollection()
	for _, e := range codecEvents() {
		c.Add(e)
	}
	var got bytes.Buffer
	if err := WriteCollection(&got, c); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, n := range c.Nodes() {
		fmt.Fprintf(&want, "# node %v (%d events)\n", n, c.Logs[n].Len())
		for i := 0; i < c.Logs[n].Len(); i++ {
			fmt.Fprintf(&want, "%s\n", referenceFormat(c.Logs[n].At(i)))
		}
	}
	if got.String() != want.String() {
		t.Errorf("WriteCollection output changed:\n%q\nwant\n%q", got.String(), want.String())
	}
}

// TestWriteCollectionAllocsPerEvent asserts the write path allocates per
// node, not per event: doubling the event volume must not increase
// allocations measurably.
func TestWriteCollectionAllocsPerEvent(t *testing.T) {
	build := func(events int) *Collection {
		c := NewCollection()
		for i := 0; i < events; i++ {
			c.Add(Event{
				Node: 3, Type: Trans, Sender: 3, Receiver: 4,
				Packet: PacketID{Origin: 3, Seq: uint32(i)}, Time: int64(i),
			})
		}
		return c
	}
	measure := func(c *Collection) float64 {
		var sink bytes.Buffer
		return testing.AllocsPerRun(10, func() {
			sink.Reset()
			if err := WriteCollection(&sink, c); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(build(1000)), measure(build(2000))
	if large > small+8 {
		t.Errorf("allocs grew with event count: %v -> %v for 1000 -> 2000 events", small, large)
	}
}

// FuzzReadLogs holds the text codec to a round trip on arbitrary input: any
// collection ReadCollection accepts must write back (WriteCollection) and
// re-read into the same per-node events, and Partition must accept it,
// placing every row in a view or the operational side channel.
func FuzzReadLogs(f *testing.F) {
	f.Add([]byte("2 recv 1 2 1:17 120034\n1 trans 1 2 1:17 119800 attempt=3\n"))
	f.Add([]byte("# node 1 (2 events)\n\n1 gen 1 - 1:17 119700\nserver srecv 1 server 1:17 120100\n"))
	f.Add([]byte("server sdown - - - 500\nserver sup - - - 900\n- gen - - -:4 7\n"))
	f.Add([]byte("1 done 1 - 1:3 5   round  2   of 3\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCollection(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCollection(&buf, c); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCollection(&buf)
		if err != nil {
			t.Fatalf("re-reading written logs: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back.Nodes(), c.Nodes()) {
			t.Fatalf("nodes %v, want %v", back.Nodes(), c.Nodes())
		}
		for _, n := range c.Nodes() {
			if got, want := back.Logs[n].Events(), c.Logs[n].Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %v: round trip gave %v, want %v", n, got, want)
			}
		}
		views, ops := Partition(c)
		rows := len(ops)
		for _, v := range views {
			rows += v.TotalEvents()
		}
		if rows != c.TotalEvents() {
			t.Fatalf("partition placed %d of %d rows", rows, c.TotalEvents())
		}
	})
}
