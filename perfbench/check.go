package main

import (
	"crypto/sha256"
	"encoding/binary"
	"reflect"

	"repro/internal/diagnosis"
	"repro/internal/flow"
)

// digest fingerprints a report — every per-packet outcome in order, the
// outage schedule and the sink — and, when flows is non-nil, the flow
// count and each flow's packet, item and inferred counts. Two outputs with
// equal digests are the same diagnosis of the same reconstruction.
type digest [sha256.Size]byte

func digestOf(rep *diagnosis.Report, flows []*flow.Flow) digest {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	flush := func() { h.Write(buf); buf = buf[:0] }
	put(uint64(rep.Sink))
	put(uint64(len(rep.Outcomes)))
	for _, o := range rep.Outcomes {
		put(uint64(o.Packet.Origin)<<32 | uint64(o.Packet.Seq))
		put(uint64(o.Cause))
		put(uint64(o.Position)<<32 | uint64(o.Toward))
		put(uint64(o.LossTime))
		put(uint64(b2i(o.TimeValid)) | uint64(b2i(o.Loop))<<1)
		flush()
	}
	put(uint64(len(rep.Outages)))
	for _, w := range rep.Outages {
		put(uint64(w.Start))
		put(uint64(w.End))
	}
	if flows != nil {
		put(uint64(len(flows)))
		for _, f := range flows {
			put(uint64(f.Packet.Origin)<<32 | uint64(f.Packet.Seq))
			put(uint64(len(f.Items)))
			put(uint64(f.InferredCount()))
			flush()
		}
	}
	flush()
	var d digest
	h.Sum(d[:0])
	return d
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outageView and reportView mirror refill-serve's JSON report, so a drained
// reply can be compared field by field with the batch reference.
type outageView struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

type reportView struct {
	Sink      string         `json:"sink"`
	Total     int            `json:"total"`
	Losses    int            `json:"losses"`
	Breakdown map[string]int `json:"breakdown"`
	Outages   []outageView   `json:"outages"`
}

func viewOf(rep *diagnosis.Report) reportView {
	v := reportView{
		Sink:      rep.Sink.String(),
		Total:     rep.Total(),
		Losses:    rep.LossCount(),
		Breakdown: make(map[string]int),
		Outages:   []outageView{},
	}
	for c, n := range rep.Breakdown() {
		v.Breakdown[c.String()] = n
	}
	for _, o := range rep.Outages {
		v.Outages = append(v.Outages, outageView{Start: o.Start, End: o.End})
	}
	return v
}

func (v reportView) equal(w reportView) bool { return reflect.DeepEqual(v, w) }

// tally counts checked operations. Every operation is attempted once and
// never retried; a transport error, a refused request or an output that
// differs from the reference marks it failed.
type tally struct {
	attempted, failed int
}

// check records one operation and returns ok.
func (t *tally) check(ok bool) bool {
	t.attempted++
	if !ok {
		t.failed++
	}
	return ok
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}
