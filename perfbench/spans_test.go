package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus the union of its children's
// intervals: overlapping children count once, and a child's part outside
// its parent does not count.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past root
		{ID: 5, Parent: 2, Name: "a.1", Start: 12 * ms, End: 15 * ms},
	}}
	self := r.selfTimes()
	want := map[int]time.Duration{1: 100*ms - 30*ms - 10*ms, 2: 17 * ms, 3: 20 * ms, 4: 30 * ms, 5: 3 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.begin("x", 0); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	if d := r.end(0); d != 0 {
		t.Fatalf("nil recorder returned duration %v", d)
	}
}
