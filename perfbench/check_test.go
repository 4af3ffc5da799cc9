package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/workload"
)

// tinyReference analyzes a small simulated campaign and returns its input,
// reference and one GOMAXPROCS output of the front door.
func tinyReference(t *testing.T) (*input, *reference, *workload.Result) {
	t.Helper()
	res, err := workload.Run(workload.Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	in := &input{meta: inputMeta{Sink: uint32(res.Sink), End: int64(res.Duration)}}
	ref, err := newReference(in, res.Logs)
	if err != nil {
		t.Fatal(err)
	}
	return in, ref, res
}

// A timed output that differs from the reference in any outcome, in any
// flow, or in the drained report counts as a failed operation.
func TestCorruptedOutputIsCaught(t *testing.T) {
	in, ref, res := tinyReference(t)
	an, err := analyzer(in, -1)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	fresh := func() (*diagnosis.Report, digest) {
		out := an.Analyze(res.Logs)
		return out.Report, digestOf(out.Report, out.Result.Flows)
	}

	_, d := fresh()
	if !tl.check(d == ref.full) {
		t.Fatal("an uncorrupted parallel output differs from the serial reference")
	}

	rep, _ := fresh()
	o := &rep.Outcomes[len(rep.Outcomes)/2]
	o.Cause = (o.Cause + 1) % diagnosis.Cause(len(diagnosis.Causes()))
	if tl.check(digestOf(rep, nil) == ref.report) {
		t.Error("a changed cause was not caught")
	}

	rep, _ = fresh()
	rep.Outcomes[0].Position++
	if tl.check(digestOf(rep, nil) == ref.report) {
		t.Error("a changed loss position was not caught")
	}

	out := an.Analyze(res.Logs)
	f := out.Result.Flows[len(out.Result.Flows)/3]
	f.Items = f.Items[:len(f.Items)-1]
	if tl.check(digestOf(out.Report, out.Result.Flows) == ref.full) {
		t.Error("a truncated flow was not caught")
	}

	v := viewOf(out.Report)
	v.Breakdown[diagnosis.Delivered.String()]--
	if tl.check(v.equal(ref.view)) {
		t.Error("a changed drained breakdown was not caught")
	}
	if tl.attempted != 5 || tl.failed != 4 {
		t.Fatalf("tally = %+v, want 5 attempted, 4 failed", tl)
	}
}

// The HTTP replay counts a drained report that differs from the reference
// as a failed request, and so does a refused append.
func TestReplayCountsBadDrainAndRefusedAppend(t *testing.T) {
	_, ref, res := tinyReference(t)
	sched, err := buildSchedule(res.Logs)
	if err != nil {
		t.Fatal(err)
	}
	bad := ref.view
	bad.Losses++
	appends := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/append", func(w http.ResponseWriter, r *http.Request) {
		appends++
		if appends == 2 {
			http.Error(w, "refused", http.StatusConflict)
		}
	})
	mux.HandleFunc("POST /v1/advance", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(bad)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ca, cb := newClient(), newClient()
	defer ca.CloseIdleConnections()
	defer cb.CloseIdleConnections()

	r := replayHTTP(srv.URL, sched, ref.view, ca, cb)
	want := sched.frags + len(sched.slices) + len(sched.slices)/reportEvery + 1
	if r.tally.attempted != want || r.tally.failed != 2 {
		t.Fatalf("tally = %+v, want %d attempted, 2 failed (errors %q)", r.tally, want, r.errs)
	}
	if len(r.append) != sched.frags {
		t.Fatalf("%d append latencies for %d fragments: a failed append was retried or dropped", len(r.append), sched.frags)
	}
}

// Replaying the fragments in schedule order rebuilds every node's log
// exactly, and each fragment holds rows stamped before its slice's
// watermark (the last slice takes whatever is left).
func TestScheduleRebuildsEveryLog(t *testing.T) {
	_, _, res := tinyReference(t)
	sched, err := buildSchedule(res.Logs)
	if err != nil {
		t.Fatal(err)
	}
	got := event.NewCollection()
	for k, sl := range sched.slices {
		for _, f := range sl.frags {
			col, err := event.ReadCollection(bytes.NewReader(f.body))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range col.Log(f.node).Events() {
				if k < len(sched.slices)-1 && e.Time >= sl.watermark {
					t.Fatalf("slice %d holds a row at %d, past its watermark %d", k, e.Time, sl.watermark)
				}
				got.Log(f.node).Append(e)
			}
		}
	}
	for _, n := range res.Logs.Nodes() {
		want, have := res.Logs.Log(n).Events(), got.Log(n).Events()
		if len(want) != len(have) {
			t.Fatalf("node %v: %d rows replayed, %d logged", n, len(have), len(want))
		}
		for i := range want {
			if !want[i].Equal(have[i]) {
				t.Fatalf("node %v row %d: replayed %v, logged %v", n, i, have[i], want[i])
			}
		}
	}
}
