package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/report"
	"repro/perfbench/stats"
)

// The traced run measures layers, not front doors: on the workload's input
// it times the calls into each module's public functions from this file —
// the staged pipeline Partition → AnalyzeViews → Classify → Aggregate.Add,
// the fused engine entry points, the snapshot calls, an in-process session
// replay and an HTTP replay — in cycles until the budget is spent. Each
// cycle is one run id in the span dump. Every per-layer metric is computed
// on every workload's input, so all traced runs print the same names.

// tracedCycles is the fewest cycles a traced run makes, so every median
// rests on more than one sample.
const tracedCycles = 2

// traced runs the per-layer measurement and dumps its spans to path.
func traced(e *env, in *input, b *board, path string) (tally, error) {
	var t tally
	c, err := in.readLogs()
	if err != nil {
		return t, err
	}
	sched, err := buildSchedule(c)
	if err != nil {
		return t, err
	}
	ref, err := newReference(in, c)
	if err != nil {
		return t, err
	}
	eng, err := engine.New(engine.Options{Sink: in.sink()})
	if err != nil {
		return t, err
	}
	front, err := analyzer(in, -1)
	if err != nil {
		return t, err
	}
	sessAn, err := analyzer(in, 0)
	if err != nil {
		return t, err
	}
	cfg := diagnosis.Config{Sink: in.sink(), End: in.meta.End}
	l := &layers{eng: eng, c: c, cfg: cfg, in: in, ref: ref, sched: sched, rec: newRecorder(),
		snapPath: filepath.Join(e.runDir, "traced.snap"), t: &t, m: make(map[string][]float64)}

	allocs, err := l.countAllocs()
	if err != nil {
		return t, err
	}
	daemonCfg := daemonConfig{
		bin: filepath.Join(e.bin, "refill-serve"), sink: in.sink(), end: in.meta.End,
		horizon: in.meta.Horizon, nodes: sched.nodes, logPath: filepath.Join(e.runDir, "refill-serve.log"),
	}
	ca, cb := newClient(), newClient()
	defer ca.CloseIdleConnections()
	defer cb.CloseIdleConnections()
	var httpAppend, httpAdvance, httpReport, reqBytes []float64
	start := time.Now()
	for cycle := 1; cycle <= tracedCycles || time.Since(start) < e.budget; cycle++ {
		l.rec.setRun(cycle)
		root := l.rec.begin("cycle", 0)
		l.stagedPipeline(root, cycle)
		l.fusedEntryPoints(root)
		if err := l.snapshotLayer(root, front); err != nil {
			return t, err
		}
		if err := l.sessionReplay(root, sessAn); err != nil {
			return t, err
		}
		sp := l.rec.begin("serve.replay", root)
		d, _, err := startDaemon(daemonCfg, ca)
		if err != nil {
			return t, err
		}
		r := replayHTTP(d.base, sched, ref.view, ca, cb)
		d.stop()
		ca.CloseIdleConnections()
		cb.CloseIdleConnections()
		l.rec.end(sp)
		for _, msg := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: traced serve replay:", msg)
		}
		t.add(r.tally)
		httpAppend = append(httpAppend, millis(r.append)...)
		httpAdvance = append(httpAdvance, millis(r.advance)...)
		httpReport = append(httpReport, millis(r.report)...)
		reqBytes = append(reqBytes, r.reqBytes...)
		l.rec.end(root)
		l.cycleMetrics(cycle)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return t, err
	}
	if err := l.rec.write(path); err != nil {
		return t, err
	}
	b.note("spans: " + path)
	l.report(b, allocs, httpAppend, httpAdvance, httpReport, reqBytes)
	return t, nil
}

// layers holds one traced run's state.
type layers struct {
	eng      *engine.Engine
	c        *event.Collection
	cfg      diagnosis.Config
	in       *input
	ref      *reference
	sched    *schedule
	rec      *recorder
	snapPath string
	t        *tally
	m        map[string][]float64 // per-cycle samples, by metric name

	views, flows int
	inferred     float64
	losses       int
	windows      int
	acc          core.Accuracy
	// pooled in-process session samples, across cycles
	appendUS, overlapUS, advanceMS, snapshotMS, fragMS []float64
}

// staged runs the pipeline outside-in, one public call per layer, under
// parent (rec may be nil for an untraced run). It returns the report, the
// flows and the view count.
func staged(eng *engine.Engine, c *event.Collection, cfg diagnosis.Config, rec *recorder, parent int) (*diagnosis.Report, []*flow.Flow, int) {
	sp := rec.begin("staged", parent)
	s := rec.begin("event.partition", sp)
	views, ops := event.Partition(c)
	rec.end(s)
	s = rec.begin("engine.walk", sp)
	flows := eng.AnalyzeViews(views)
	rec.end(s)
	s = rec.begin("diagnosis.outages", sp)
	outages := diagnosis.OutagesFromOperational(ops, cfg.End)
	rec.end(s)
	s = rec.begin("diagnosis.classify", sp)
	outs := classifyAll(flows, outages, cfg.Sink)
	rec.end(s)
	s = rec.begin("diagnosis.aggregate.add", sp)
	agg := diagnosis.NewAggregate(cfg.Sink, cfg.Start, cfg.DayLen, cfg.Days)
	for _, o := range outs {
		agg.Add(o)
	}
	rec.end(s)
	s = rec.begin("diagnosis.report", sp)
	rep := diagnosis.FromParts(cfg.Sink, outages, outs, agg)
	rec.end(s)
	rec.end(sp)
	return rep, flows, len(views)
}

func classifyAll(flows []*flow.Flow, outages diagnosis.OutageSchedule, sink event.NodeID) []diagnosis.Outcome {
	cl := diagnosis.NewClassifier()
	outs := make([]diagnosis.Outcome, len(flows))
	for i, f := range flows {
		outs[i] = diagnosis.ApplyOutages(cl.Classify(f), outages, sink)
	}
	return outs
}

// stagedPipeline runs the staged pipeline traced and untraced, in an order
// that alternates between cycles, and checks both reports against the
// fused reference.
func (l *layers) stagedPipeline(root, cycle int) {
	traced := func() {
		sp := l.rec.begin("staged.traced", root)
		rep, flows, views := staged(l.eng, l.c, l.cfg, l.rec, sp)
		l.rec.end(sp)
		l.t.check(digestOf(rep, flows) == l.ref.full)
		l.views, l.flows, l.inferred, l.losses = views, len(flows), inferredFrac(flows), rep.LossCount()
		l.acc = core.Score(rep, l.in.fates)
	}
	untraced := func() {
		sp := l.rec.begin("staged.untraced", root)
		rep, flows, _ := staged(l.eng, l.c, l.cfg, nil, 0)
		l.rec.end(sp)
		l.t.check(digestOf(rep, flows) == l.ref.full)
	}
	if cycle%2 == 1 {
		traced()
		untraced()
	} else {
		untraced()
		traced()
	}
}

// fusedEntryPoints times the engine's fused serial and GOMAXPROCS paths.
func (l *layers) fusedEntryPoints(root int) {
	sp := l.rec.begin("engine.fused_serial", root)
	res, rep := l.eng.AnalyzeDiagnosed(l.c, l.cfg)
	l.rec.end(sp)
	l.t.check(digestOf(rep, res.Flows) == l.ref.full)

	sp = l.rec.begin("engine.fused_parallel", root)
	res, rep = l.eng.AnalyzeParallelDiagnosed(l.c, runtime.GOMAXPROCS(0), l.cfg)
	l.rec.end(sp)
	l.t.check(digestOf(rep, res.Flows) == l.ref.full)
}

// snapshotLayer times the snapshot calls one by one, then both front doors
// (batch and out of core) on the same input for their ratio.
func (l *layers) snapshotLayer(root int, front *core.Analyzer) error {
	rows := l.in.meta.Rows
	sp := l.rec.begin("event.snapshot.write", root)
	err := event.WriteSnapshot(l.snapPath, l.c)
	l.rec.end(sp)
	if err != nil {
		return err
	}
	sp = l.rec.begin("event.snapshot.open", root)
	snap, err := event.OpenSnapshot(l.snapPath)
	l.rec.end(sp)
	if err != nil {
		return err
	}
	sp = l.rec.begin("event.snapshot.plan", root)
	plan, err := event.PlanWindows(snap.Collection(), snapshotOpts(rows).WindowRows)
	l.rec.end(sp)
	if err != nil {
		snap.Close()
		return fmt.Errorf("plan windows: %w", err)
	}
	l.windows = plan.Windows()
	sp = l.rec.begin("event.snapshot.advise", root)
	for k := 0; k < plan.Windows(); k++ {
		snap.PrefetchWindow(plan, k)
		snap.ReleaseWindow(plan, k)
	}
	l.rec.end(sp)
	if err := snap.Close(); err != nil {
		return err
	}

	sp = l.rec.begin("front.batch", root)
	out := front.Analyze(l.c)
	text := report.Breakdown(out.Report)
	l.rec.end(sp)
	l.t.check(text == l.ref.text && digestOf(out.Report, out.Result.Flows) == l.ref.full)
	sp = l.rec.begin("front.snapshot", root)
	rep, err := snapshotOp(front, l.snapPath, rows)
	l.rec.end(sp)
	l.t.check(err == nil && digestOf(rep, nil) == l.ref.report)
	return nil
}

// sessionReplay replays the schedule in process through a session with the
// HTTP replay's two-goroutine shape: one goroutine decodes and appends
// every fragment, the other advances per finished slice and snapshots every
// sixth, then drains.
func (l *layers) sessionReplay(root int, an *core.Analyzer) error {
	sess, err := an.NewSession(core.SessionConfig{Horizon: l.in.meta.Horizon})
	if err != nil {
		return err
	}
	for _, n := range l.sched.nodes {
		sess.Register(n)
	}
	rp := l.rec.begin("ingest.replay", root)
	done := make(chan int, len(l.sched.slices)) // one send per slice
	var appendErr error
	go func() {
		defer close(done)
		for k, sl := range l.sched.slices {
			for _, f := range sl.frags {
				fs := l.rec.begin("ingest.fragment", rp)
				s := l.rec.begin("event.codec.decode", fs)
				col, err := event.ReadCollection(bytes.NewReader(f.body))
				l.rec.end(s)
				if err != nil {
					appendErr = err
					return
				}
				for _, n := range col.Nodes() {
					evs := col.Log(n).Events()
					s := l.rec.begin("ingest.append", fs)
					err := sess.Append(n, evs)
					l.rec.end(s)
					if err != nil {
						appendErr = err
						return
					}
				}
				l.rec.end(fs)
			}
			done <- k
		}
	}()
	finalized, advances, hwm := 0, 0, 0
	var advanceErr error
	for k := range done {
		hwm = max(hwm, sess.Stats().PendingRows)
		s := l.rec.begin("ingest.advance", rp)
		n, err := sess.Advance(l.sched.slices[k].watermark)
		l.rec.end(s)
		if err != nil && advanceErr == nil {
			advanceErr = err
		}
		finalized += n
		advances++
		if (k+1)%reportEvery == 0 {
			s := l.rec.begin("ingest.snapshot", rp)
			sess.Snapshot()
			l.rec.end(s)
		}
	}
	hwm = max(hwm, sess.Stats().PendingRows)
	s := l.rec.begin("ingest.drain", rp)
	_, rep := sess.Drain()
	l.rec.end(s)
	l.rec.end(rp)
	if appendErr != nil || advanceErr != nil {
		return fmt.Errorf("in-process replay: append %v, advance %v", appendErr, advanceErr)
	}
	l.t.check(digestOf(rep, nil) == l.ref.report)
	l.m["ingest.finalized_per_advance"] = append(l.m["ingest.finalized_per_advance"], float64(finalized)/float64(max(advances, 1)))
	l.m["ingest.pending_rows_hwm"] = append(l.m["ingest.pending_rows_hwm"], float64(hwm))
	return nil
}

// cycleMetrics turns one cycle's spans into per-cycle samples.
func (l *layers) cycleMetrics(cycle int) {
	spans := l.rec.spansOf(cycle)
	self := l.rec.selfTimes()
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, s := range spans[name] {
			d += self[s.ID]
		}
		return d
	}
	dur := func(name string) time.Duration {
		var d time.Duration
		for _, s := range spans[name] {
			d += s.End - s.Start
		}
		return d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	add := func(name string, v float64) { l.m[name] = append(l.m[name], v) }
	rows := float64(l.in.meta.Rows)

	add("event.codec.decode_ms", ms(sum("event.codec.decode")))
	add("event.codec.decode_ns_per_row", float64(sum("event.codec.decode"))/rows)
	add("event.partition.self_ms", ms(sum("event.partition")))
	add("event.partition.ns_per_row", float64(sum("event.partition"))/rows)
	add("event.snapshot.write_ms", ms(dur("event.snapshot.write")))
	add("event.snapshot.open_ms", ms(dur("event.snapshot.open")))
	add("event.snapshot.plan_ms", ms(dur("event.snapshot.plan")))
	add("event.snapshot.advise_ms", ms(dur("event.snapshot.advise")))
	add("engine.walk.self_ms", ms(sum("engine.walk")))
	add("engine.walk.ns_per_view", float64(sum("engine.walk"))/float64(max(l.views, 1)))
	add("fused_serial", ms(dur("engine.fused_serial")))
	add("fused_parallel", ms(dur("engine.fused_parallel")))
	add("front_batch", ms(dur("front.batch")))
	add("front_snapshot", ms(dur("front.snapshot")))
	add("diagnosis.classify.self_ms", ms(sum("diagnosis.classify")))
	add("diagnosis.aggregate.add_ms", ms(sum("diagnosis.aggregate.add")))
	add("ingest.append.self_ms", ms(sum("ingest.append")))
	add("ingest.advance.self_ms", ms(sum("ingest.advance")))
	add("ingest.drain_ms", ms(dur("ingest.drain")))
	var stages time.Duration
	for _, name := range []string{"event.partition", "engine.walk", "diagnosis.outages",
		"diagnosis.classify", "diagnosis.aggregate.add", "diagnosis.report"} {
		stages += sum(name)
	}
	add("staged_stages", ms(stages))
	add("staged_traced", ms(dur("staged.traced")))
	add("staged_untraced", ms(dur("staged.untraced")))

	// Latency samples pool across cycles; an Append overlaps an Advance
	// when their intervals intersect.
	advances := spans["ingest.advance"]
	sort.Slice(advances, func(i, j int) bool { return advances[i].Start < advances[j].Start })
	for _, s := range spans["ingest.append"] {
		us := float64(s.End-s.Start) / float64(time.Microsecond)
		l.appendUS = append(l.appendUS, us)
		i := sort.Search(len(advances), func(i int) bool { return advances[i].End >= s.Start })
		if i < len(advances) && advances[i].Start <= s.End {
			l.overlapUS = append(l.overlapUS, us)
		}
	}
	for _, s := range advances {
		l.advanceMS = append(l.advanceMS, ms(s.End-s.Start))
	}
	for _, s := range spans["ingest.snapshot"] {
		l.snapshotMS = append(l.snapshotMS, ms(s.End-s.Start))
	}
	for _, s := range spans["ingest.fragment"] {
		l.fragMS = append(l.fragMS, ms(s.End-s.Start))
	}
}

// report fills the board with every per-layer metric.
func (l *layers) report(b *board, allocs map[string]float64, httpAppend, httpAdvance, httpReport, reqBytes []float64) {
	med := func(name string) float64 { return stats.Median(l.m[name]) }
	series := func(name, unit string) { b.add(name, unit, l.m[name]) }

	series("event.codec.decode_ms", "ms")
	series("event.codec.decode_ns_per_row", "ns")
	series("event.partition.self_ms", "ms")
	series("event.partition.ns_per_row", "ns")
	b.value("event.partition.views", "count", float64(l.views))
	b.value("event.partition.allocs", "count", allocs["partition"])
	b.value("event.partition.max_origin_share", "ratio", l.in.meta.MaxOriginShare)
	series("event.snapshot.write_ms", "ms")
	series("event.snapshot.open_ms", "ms")
	series("event.snapshot.plan_ms", "ms")
	b.value("event.snapshot.windows", "count", float64(l.windows))
	series("event.snapshot.advise_ms", "ms")
	series("engine.walk.self_ms", "ms")
	series("engine.walk.ns_per_view", "ns")
	b.value("engine.walk.flows", "count", float64(l.flows))
	b.value("engine.walk.inferred_frac", "ratio", l.inferred)
	b.value("engine.walk.allocs", "count", allocs["walk"])
	b.value("engine.schedule.speedup", "ratio", med("fused_serial")/med("fused_parallel"))
	b.add("engine.fused_serial_ms", "ms", l.m["fused_serial"])
	b.value("engine.ooc_overhead", "ratio", med("front_snapshot")/med("front_batch"))
	series("diagnosis.classify.self_ms", "ms")
	b.value("diagnosis.classify.allocs", "count", allocs["classify"])
	series("diagnosis.aggregate.add_ms", "ms")
	b.value("diagnosis.losses", "count", float64(l.losses))
	series("ingest.append.self_ms", "ms")
	b.value("ingest.append.p99_us", "us", stats.PercentileOf(l.appendUS, 99))
	b.value("ingest.append.allocs", "count/call", allocs["append"])
	b.value("ingest.append.overlap_p99_us", "us", stats.PercentileOf(l.overlapUS, 99))
	series("ingest.advance.self_ms", "ms")
	b.value("ingest.advance.p90_ms", "ms", stats.PercentileOf(l.advanceMS, 90))
	b.value("ingest.advance.allocs", "count/call", allocs["advance"])
	b.value("ingest.snapshot.p50_ms", "ms", stats.Median(l.snapshotMS))
	series("ingest.drain_ms", "ms")
	series("ingest.finalized_per_advance", "count")
	series("ingest.pending_rows_hwm", "rows")
	b.value("append_p50_ms", "ms", stats.Median(httpAppend))
	b.value("append_p99_ms", "ms", stats.PercentileOf(httpAppend, 99))
	b.value("advance_p90_ms", "ms", stats.PercentileOf(httpAdvance, 90))
	b.value("report_p50_ms", "ms", stats.Median(httpReport))
	b.value("serve.http_overhead_ms", "ms", stats.Median(httpAppend)-stats.Median(l.fragMS))
	b.value("serve.request_bytes_p50", "bytes", stats.Median(reqBytes))
	b.value("cause_acc_pct", "%", 100*l.acc.CauseRate())
	b.value("position_acc_pct", "%", 100*l.acc.PositionRate())
	b.value("core.staged_coverage", "ratio", med("staged_stages")/med("fused_serial"))
	b.value("trace.overhead_frac", "ratio", med("staged_traced")/med("staged_untraced"))

	b.extra("ingest.append_us", "us", l.appendUS)
	b.extra("ingest.append_overlap_us", "us", l.overlapUS)
	b.extra("ingest.advance_ms", "ms", l.advanceMS)
	b.extra("http.append_ms", "ms", httpAppend)
	b.extra("http.advance_ms", "ms", httpAdvance)
	b.extra("http.report_ms", "ms", httpReport)
	b.extra("engine.fused_parallel_ms", "ms", l.m["fused_parallel"])
	b.extra("front.batch_ms", "ms", l.m["front_batch"])
	b.extra("front.snapshot_ms", "ms", l.m["front_snapshot"])
}

// countAllocs counts heap allocations of the serial calls once, outside
// every timed cycle: Partition, AnalyzeViews and the classify loop per
// call, and Session.Append and Session.Advance per call over a serial
// (one-worker) replay of the schedule. These counts repeat exactly.
func (l *layers) countAllocs() (map[string]float64, error) {
	var ac allocCounter
	out := make(map[string]float64)
	var views []*event.PacketView
	var ops []event.Event
	out["partition"] = float64(ac.around(func() { views, ops = event.Partition(l.c) }))
	var flows []*flow.Flow
	out["walk"] = float64(ac.around(func() { flows = l.eng.AnalyzeViews(views) }))
	outages := diagnosis.OutagesFromOperational(ops, l.cfg.End)
	out["classify"] = float64(ac.around(func() { classifyAll(flows, outages, l.cfg.Sink) }))
	views, flows = nil, nil

	an, err := analyzer(l.in, 1)
	if err != nil {
		return nil, err
	}
	sess, err := an.NewSession(core.SessionConfig{Horizon: l.in.meta.Horizon})
	if err != nil {
		return nil, err
	}
	for _, n := range l.sched.nodes {
		sess.Register(n)
	}
	var appendAllocs, advanceAllocs uint64
	appends := 0
	for _, sl := range l.sched.slices {
		for _, f := range sl.frags {
			col, err := event.ReadCollection(bytes.NewReader(f.body))
			if err != nil {
				return nil, err
			}
			for _, n := range col.Nodes() {
				evs := col.Log(n).Events()
				appendAllocs += ac.around(func() { err = sess.Append(n, evs) })
				if err != nil {
					return nil, err
				}
				appends++
			}
		}
		advanceAllocs += ac.around(func() { _, err = sess.Advance(sl.watermark) })
		if err != nil {
			return nil, err
		}
	}
	_, rep := sess.Drain()
	l.t.check(digestOf(rep, nil) == l.ref.report)
	out["append"] = float64(appendAllocs) / float64(max(appends, 1))
	out["advance"] = float64(advanceAllocs) / float64(max(len(l.sched.slices), 1))
	return out, nil
}

// inferredFrac is the share of flow items the engine inferred rather than
// read from a log.
func inferredFrac(flows []*flow.Flow) float64 {
	items, inferred := 0, 0
	for _, f := range flows {
		items += len(f.Items)
		inferred += f.InferredCount()
	}
	if items == 0 {
		return 0
	}
	return float64(inferred) / float64(items)
}
