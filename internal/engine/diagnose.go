package engine

import (
	"runtime"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// Fused diagnosis: every collection entry point classifies each flow the
// moment its worker commits it — while the flow's items and visits are still
// hot in that worker's cache — and folds the outcome into a worker-owned
// diagnosis.Aggregate. The outage schedule is reconstructed up front (from
// Partition's operational byproduct, or supplied by the window's caller),
// shared read-only across workers, and the per-worker aggregates merge at
// the join. A campaign is therefore diagnosed with no second pass over the
// flows and no cross-worker sharing; the resulting Report is identical to
// running diagnosis.Build over the finished Result.

// AnalyzeDiagnosed runs Analyze and the diagnosis in one fused serial pass:
// one classifier's scratch serves every flow right after it is built. It is
// AnalyzeParallelDiagnosed with one worker.
func (e *Engine) AnalyzeDiagnosed(c *event.Collection, cfg diagnosis.Config) (*Result, *diagnosis.Report) {
	return e.AnalyzeParallelDiagnosed(c, 1, cfg)
}

// AnalyzeParallelDiagnosed reconstructs and classifies every packet of c
// over workers origin-sharded workers: every worker owns a classifier and an
// aggregate alongside its run state and arena, writes outcomes into the same
// indexed slots as its flows, and the aggregates merge once at the join.
// workers <= 0 selects GOMAXPROCS. The Result and Report are identical for
// every worker count.
func (e *Engine) AnalyzeParallelDiagnosed(c *event.Collection, workers int, cfg diagnosis.Config) (*Result, *diagnosis.Report) {
	views, ops := event.Partition(c)
	sched := diagnosis.OutagesFromOperational(ops, cfg.End)
	flows, outs, agg := e.analyzeFused(views, workers, cfg, sched)
	return &Result{Operational: ops, Flows: flows}, diagnosis.FromParts(cfg.Sink, sched, outs, agg)
}

// analyzeFused is the one driver behind every collection entry point: it
// reconstructs and classifies views against sched on workers origin-sharded
// workers (<= 0 selects GOMAXPROCS; never more than one per view) and returns
// the co-indexed flows and outcomes, in view order, with their merged
// aggregate. One worker runs inline on a pooled run and one arena sized for
// the whole batch.
func (e *Engine) analyzeFused(views []*event.PacketView, workers int, cfg diagnosis.Config, sched diagnosis.OutageSchedule) ([]*flow.Flow, []diagnosis.Outcome, *diagnosis.Aggregate) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(views) {
		workers = len(views)
	}
	flows := make([]*flow.Flow, len(views))
	outs := make([]diagnosis.Outcome, len(views))
	agg := diagnosis.NewAggregate(cfg.Sink, cfg.Start, cfg.DayLen, cfg.Days)
	if len(views) == 0 {
		return flows, outs, agg
	}
	// analyzeRange reconstructs, classifies and aggregates views [lo, hi)
	// with one worker's scratch, writing only those indexed slots.
	analyzeRange := func(ws *workerScratch, lo, hi int) {
		for i := lo; i < hi; i++ {
			f := ws.run.analyze(e, views[i], ws.arena)
			flows[i] = f
			outs[i] = diagnosis.ApplyOutages(ws.cl.Classify(f), sched, cfg.Sink)
			ws.agg.Add(outs[i])
		}
	}
	sizing := e.flowSizing(views)
	if workers == 1 {
		ws := &workerScratch{run: e.runPool.Get().(*run), arena: flow.NewArena(sizing), cl: diagnosis.NewClassifier(), agg: agg}
		analyzeRange(ws, 0, len(views))
		e.runPool.Put(ws.run)
		return flows, outs, agg
	}
	sizing = perWorker(sizing, workers)
	aggs := make([]*diagnosis.Aggregate, workers)
	e.runSharded(views, workers, func(w int, next func() (int, int, bool)) {
		ws := newWorkerScratch(sizing, cfg)
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			analyzeRange(ws, lo, hi)
		}
		//refill:allow shardowner — merge-at-join handoff: each worker writes only aggs[w], read after the runSharded join
		aggs[w] = ws.agg
	})
	for _, wagg := range aggs {
		agg.Merge(wagg)
	}
	return flows, outs, agg
}
