package engine

import (
	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// Incremental (windowed) analysis: the resident ingest session retires one
// watermark window of provably-complete packets at a time and runs the same
// origin-sharded fused reconstruction over just that window. Unlike the
// batch entry points this path returns PARTS — flows, outcomes and a
// mergeable aggregate — instead of a finished Report, because the session
// folds many windows into one running aggregate and only assembles a Report
// at snapshot or drain time. The outage schedule is supplied by the caller
// (the session derives it from the operational events it has seen so far);
// per-packet work is identical to the batch paths, so a drained session
// reproduces Analyze byte for byte.

// AnalyzeWindowDiagnosed reconstructs and classifies every packet of one
// retired window. c must contain only packet-scoped rows (the session keeps
// operational events to itself); sched is the outage schedule the window's
// outcomes are classified against. Flows and outcomes are co-indexed and in
// packet-ID order within the window. workers <= 0 selects GOMAXPROCS.
func (e *Engine) AnalyzeWindowDiagnosed(c *event.Collection, workers int, cfg diagnosis.Config, sched diagnosis.OutageSchedule) ([]*flow.Flow, []diagnosis.Outcome, *diagnosis.Aggregate) {
	views, _ := event.Partition(c)
	return e.analyzeFused(views, workers, cfg, sched)
}
