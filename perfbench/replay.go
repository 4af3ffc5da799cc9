package main

import (
	"bytes"
	"fmt"

	"repro/internal/event"
	"repro/internal/sim"
)

// sliceLen is the replay's unit of time: each node ships one fragment per
// hour of its own (skewed, local) clock, like a retriever polling hourly.
const sliceLen = sim.Hour

// fragment is one node's rows for one slice, pre-encoded in the text wire
// format so encoding cost stays out of every measurement.
type fragment struct {
	node event.NodeID
	rows int
	body []byte
}

// slice is every fragment of one hour, and the watermark that is safe to
// advance to once they are all appended.
type slice struct {
	frags     []fragment
	watermark int64
}

// schedule is a replay of a collection as per-node hourly fragments.
type schedule struct {
	slices []slice
	nodes  []event.NodeID
	rows   int
	frags  int
}

// buildSchedule cuts each node's log, in log order, at local-hour
// boundaries: slice h gets the node's next rows stamped before hour h+1.
// Cutting by position keeps per-node log order even where a clock steps
// back.
func buildSchedule(c *event.Collection) (*schedule, error) {
	nodes := c.Nodes()
	lo, hi := int64(0), int64(0)
	first := true
	for _, n := range nodes {
		b := c.Log(n).Batch()
		for i := 0; i < b.Len(); i++ {
			h := floorDiv(b.Time(i), sliceLen)
			if first || h < lo {
				lo = h
			}
			if first || h > hi {
				hi = h
			}
			first = false
		}
	}
	if first {
		return nil, fmt.Errorf("empty collection")
	}
	s := &schedule{nodes: nodes, slices: make([]slice, hi-lo+1)}
	for k := range s.slices {
		s.slices[k].watermark = (lo + int64(k) + 1) * sliceLen
	}
	for _, n := range nodes {
		b := c.Log(n).Batch()
		i := 0
		for k := range s.slices {
			j := i
			for j < b.Len() && b.Time(j) < s.slices[k].watermark {
				j++
			}
			if k == len(s.slices)-1 {
				j = b.Len()
			}
			if j == i {
				continue
			}
			frag := event.NewCollection()
			l := frag.Log(n)
			for r := i; r < j; r++ {
				l.Append(b.At(r))
			}
			var body bytes.Buffer
			if err := event.WriteCollection(&body, frag); err != nil {
				return nil, err
			}
			s.slices[k].frags = append(s.slices[k].frags, fragment{node: n, rows: j - i, body: body.Bytes()})
			s.rows += j - i
			s.frags++
			i = j
		}
	}
	if s.rows != c.TotalEvents() {
		return nil, fmt.Errorf("schedule holds %d rows, collection %d", s.rows, c.TotalEvents())
	}
	return s, nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// reportEvery is how often (in slices) the advancing client also reads the
// live report.
const reportEvery = 6
