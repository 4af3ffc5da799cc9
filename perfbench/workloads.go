package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/report"
	"repro/perfbench/stats"
)

// segments is how many processes a gated run measures in, one after the
// other. Each decodes its own copy of the input (or writes its own
// snapshot), sets up, makes one memory probe and times its share of the
// operations. Figures from one process move together: peak memory taken in
// one process varied by a tenth between processes on the same input, as
// did throughput, as if they depended on where that process's data landed
// in memory. setup_s is the median of the processes' set-up times.
const segments = 3

// minOps is the fewest timed operations a segment makes, even past its
// budget.
const minOps = 2

// env is what every workload runner gets from the command line.
type env struct {
	budget time.Duration
	bin    string
	runDir string
}

// reference is the serial batch analysis of a workload's input: every
// checked output is compared against it.
type reference struct {
	full   digest // report and flows
	report digest // report alone (paths that discard flows)
	text   string // rendered cause breakdown
	view   reportView
}

func newReference(in *input, c *event.Collection) (*reference, error) {
	an, err := core.NewAnalyzer(core.Options{Sink: in.sink(), End: in.meta.End})
	if err != nil {
		return nil, err
	}
	out := an.Analyze(c)
	return &reference{
		full:   digestOf(out.Report, out.Result.Flows),
		report: digestOf(out.Report, nil),
		text:   report.Breakdown(out.Report),
		view:   viewOf(out.Report),
	}, nil
}

// loadReference decodes the input and analyzes it serially, keeping only
// the reference.
func loadReference(in *input) (*reference, error) {
	c, err := in.readLogs()
	if err != nil {
		return nil, err
	}
	return newReference(in, c)
}

// analyzer is the front-door configuration: the given fan-out over the
// campaign window (-1 is GOMAXPROCS workers).
func analyzer(in *input, parallelism int) (*core.Analyzer, error) {
	return core.NewAnalyzer(core.Options{Sink: in.sink(), End: in.meta.End, Parallelism: parallelism})
}

// settle collects garbage and returns freed memory to the OS, so the peak
// resident set measured next starts from what the process actually holds.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// selfPID names this process under /proc.
var selfPID = strconv.Itoa(os.Getpid())

// operation runs one timed operation and returns the untimed check of its
// output.
type operation func() (check func() bool)

// prepare readies one segment: it loads what the workload loads before
// set-up, untimed, then runs the set-up and returns the operation and the
// set-up's duration in seconds.
type prepare func() (op operation, setupSecs float64, err error)

// samples is what one segment measured, with the calibration factor of one
// pass after the set-up and before each timed operation. It is the result
// line of a segment process.
type samples struct {
	Setup       []float64 `json:"setup_s"`
	OpSecs      []float64 `json:"op_s"`
	PeakMB      []float64 `json:"peak_mb"`
	Scale       []float64 `json:"scale"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	CausePct    float64   `json:"cause_acc_pct"`
	PositionPct float64   `json:"position_acc_pct"`
}

// runSegment runs one segment: set-up, then one memory probe, an operation
// from a settled heap (garbage collected, freed memory returned, peak
// reset) whose peak resident set is the segment's memory sample. Without
// settling, an operation inherits a heap goal and unreturned pages from the
// ones before it, and its peak depends on where in the collector's cycle it
// starts. Then the timed operations run back to back, in steady state, each
// right after a calibration pass, until the budget is spent. The
// calibration table exists only after the probe, so it is in no memory
// sample. Every operation's output is checked and counted in t.
func runSegment(e *env, t *tally, prep prepare) (samples, error) {
	var s samples
	settle()
	op, setupSecs, err := prep()
	if err != nil {
		return s, err
	}
	s.Setup = append(s.Setup, setupSecs)
	settle()
	if err := resetPeakRSS(selfPID); err != nil {
		return s, fmt.Errorf("reset peak RSS: %w", err)
	}
	check := op()
	peak, err := peakRSS(selfPID)
	if err != nil {
		return s, err
	}
	s.PeakMB = append(s.PeakMB, peak)
	t.check(check())
	cal := newCalibration()
	s.Scale = append(s.Scale, cal.run())
	settle()
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < e.budget; n++ {
		s.Scale = append(s.Scale, cal.run())
		t0 := time.Now()
		check := op()
		s.OpSecs = append(s.OpSecs, time.Since(t0).Seconds())
		t.check(check())
	}
	return s, nil
}

// segmentFunc runs one segment of a gated workload and returns its samples
// with the accuracy of its last output.
type segmentFunc func(e *env, in *input, t *tally) (samples, core.Accuracy, error)

// runGated measures a gated workload in segments child processes, one after
// the other, each given a third of the budget, and reports the pooled
// samples.
func runGated(e *env, childArgs []string, in *input, b *board) (tally, error) {
	var t tally
	var all samples
	self, err := os.Executable()
	if err != nil {
		return t, err
	}
	for i := 0; i < segments; i++ {
		cmd := exec.Command(self, append(childArgs, "-segment",
			"--seconds", strconv.FormatFloat(e.budget.Seconds()/segments, 'f', -1, 64))...)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return t, fmt.Errorf("segment %d: %w", i+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var s samples
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			return t, fmt.Errorf("segment %d result: %w", i+1, err)
		}
		t.attempted += s.Attempted
		t.failed += s.Failed
		all.Setup = append(all.Setup, s.Setup...)
		all.OpSecs = append(all.OpSecs, s.OpSecs...)
		all.PeakMB = append(all.PeakMB, s.PeakMB...)
		all.Scale = append(all.Scale, s.Scale...)
		all.CausePct, all.PositionPct = s.CausePct, s.PositionPct
	}
	endToEnd(b, in, all)
	return t, nil
}

// segmentMain is a segment process: it runs one segment of the workload and
// prints its samples as the last line.
func segmentMain(e *env, run segmentFunc, in *input) error {
	var t tally
	s, acc, err := run(e, in, &t)
	if err != nil {
		return err
	}
	s.Attempted, s.Failed = t.attempted, t.failed
	s.CausePct, s.PositionPct = 100*acc.CauseRate(), 100*acc.PositionRate()
	raw, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// endToEnd fills the metrics every gated workload reports: set-up time and
// throughput (rows over one operation's time), each the median over the
// run, and the peak resident set of one operation, the mean over the run's
// probes. Times are wall-clock times
// scaled to the reference box's speed by the run's median calibration
// factor (one pass alone is too noisy to scale the operation next to it);
// the unscaled figures are printed alongside. Accuracy against ground truth
// is printed too; it varies with the seed's scenario more than a bounded
// metric may, so the traced run reports it per layer.
func endToEnd(b *board, in *input, s samples) {
	factor := stats.Median(s.Scale)
	setup := make([]float64, len(s.Setup))
	for i, secs := range s.Setup {
		setup[i] = secs * factor
	}
	b.add("setup_s", "s", setup)
	eps := make([]float64, len(s.OpSecs))
	wall := make([]float64, len(s.OpSecs))
	for i, secs := range s.OpSecs {
		wall[i] = float64(in.meta.Rows) / secs
		eps[i] = wall[i] / factor
	}
	b.add("events_per_s", "events/s", eps)
	// Each probe's peak is one of a few levels, set by where the collector
	// happens to run during the operation; the mean over the segments'
	// probes moves less between runs than their median.
	mean := 0.0
	for _, mb := range s.PeakMB {
		mean += mb / float64(len(s.PeakMB))
	}
	b.value("peak_rss_mb", "MB", mean)
	b.extra("peak_rss_mb.probes", "MB", s.PeakMB)
	b.extra("setup_s.wall", "s", s.Setup)
	b.extra("events_per_s.wall", "events/s", wall)
	b.extra("calibration.factor", "ratio", s.Scale)
	b.extra("cause_acc_pct", "%", []float64{s.CausePct})
	b.extra("position_acc_pct", "%", []float64{s.PositionPct})
}

// campaignBatch times Analyzer.Analyze at GOMAXPROCS over the resident
// campaign, followed by rendering the cause breakdown. Set-up is the text
// decode, NewAnalyzer and one warm-up operation.
func campaignBatch(e *env, in *input, t *tally) (samples, core.Accuracy, error) {
	var acc core.Accuracy
	ref, err := loadReference(in)
	if err != nil {
		return samples{}, acc, err
	}
	s, err := runSegment(e, t, func() (operation, float64, error) {
		t0 := time.Now()
		c, err := in.readLogs()
		if err != nil {
			return nil, 0, err
		}
		an, err := analyzer(in, -1)
		if err != nil {
			return nil, 0, err
		}
		_ = report.Breakdown(an.Analyze(c).Report)
		return func() func() bool {
			out := an.Analyze(c)
			text := report.Breakdown(out.Report)
			return func() bool {
				acc = core.Score(out.Report, in.fates)
				return text == ref.text && digestOf(out.Report, out.Result.Flows) == ref.full
			}
		}, time.Since(t0).Seconds(), nil
	})
	return s, acc, err
}

// snapshotOpts is the out-of-core configuration: about eight residency
// windows per campaign, flows dropped after aggregation.
func snapshotOpts(rows int) core.SnapshotOptions {
	return core.SnapshotOptions{WindowRows: rows/8 + 1, DiscardFlows: true}
}

// snapshotOp opens the snapshot, analyzes it out of core and closes it.
func snapshotOp(an *core.Analyzer, path string, rows int) (*diagnosis.Report, error) {
	snap, err := event.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	out := an.AnalyzeSnapshot(snap, snapshotOpts(rows))
	if err := snap.Close(); err != nil {
		return nil, err
	}
	if out.Result.Flows != nil {
		return nil, fmt.Errorf("AnalyzeSnapshot kept flows under DiscardFlows")
	}
	return out.Report, nil
}

// snapshotOOC times OpenSnapshot + AnalyzeSnapshot + Close over a snapshot
// of the campaign. Set-up is the text decode, NewAnalyzer, WriteSnapshot
// and one warm-up operation; the decoded collection is dropped before the
// operations, so the resident set is the mapping's and the windows'.
func snapshotOOC(e *env, in *input, t *tally) (samples, core.Accuracy, error) {
	var acc core.Accuracy
	ref, err := loadReference(in)
	if err != nil {
		return samples{}, acc, err
	}
	path := filepath.Join(e.runDir, "campaign.snap")
	s, err := runSegment(e, t, func() (operation, float64, error) {
		t0 := time.Now()
		c, err := in.readLogs()
		if err != nil {
			return nil, 0, err
		}
		an, err := analyzer(in, -1)
		if err != nil {
			return nil, 0, err
		}
		if err := event.WriteSnapshot(path, c); err != nil {
			return nil, 0, err
		}
		if _, err := snapshotOp(an, path, in.meta.Rows); err != nil {
			return nil, 0, err
		}
		return func() func() bool {
			rep, err := snapshotOp(an, path, in.meta.Rows)
			return func() bool {
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: snapshot operation failed:", err)
					return false
				}
				acc = core.Score(rep, in.fates)
				return digestOf(rep, nil) == ref.report
			}
		}, time.Since(t0).Seconds(), nil
	})
	return s, acc, err
}

// hotOriginBatch times Analyzer.Analyze at GOMAXPROCS over the hot-origin
// collection. Each segment decodes the collection untimed; set-up is
// NewAnalyzer and one warm-up operation.
func hotOriginBatch(e *env, in *input, t *tally) (samples, core.Accuracy, error) {
	var acc core.Accuracy
	ref, err := loadReference(in)
	if err != nil {
		return samples{}, acc, err
	}
	s, err := runSegment(e, t, func() (operation, float64, error) {
		c, err := in.readLogs()
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		an, err := analyzer(in, -1)
		if err != nil {
			return nil, 0, err
		}
		an.Analyze(c)
		return func() func() bool {
			out := an.Analyze(c)
			return func() bool {
				acc = core.Score(out.Report, in.fates)
				return digestOf(out.Report, out.Result.Flows) == ref.full
			}
		}, time.Since(t0).Seconds(), nil
	})
	return s, acc, err
}

// serveReplay replays the campaign into a fresh refill-serve daemon per
// replay until the budget is spent. Set-up is daemon start to the last
// node registration; the timed phase runs from the first append to the
// drain reply; peak RSS is the daemon's over the timed phase. It is not one
// of the gated workloads: the daemon's memory follows how long a node's
// log blackout stalls the watermark, which differs by a quarter between
// seeds, so its figures cannot meet a bound across seeds. The traced run
// measures the same replay's latencies on every gated workload's input.
func serveReplay(e *env, in *input, b *board) (tally, error) {
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
	c = nil
	settle()
	cfg := daemonConfig{
		bin: filepath.Join(e.bin, "refill-serve"), sink: in.sink(), end: in.meta.End,
		horizon: in.meta.Horizon, nodes: sched.nodes, logPath: filepath.Join(e.runDir, "refill-serve.log"),
	}
	ca, cb := newClient(), newClient()
	defer ca.CloseIdleConnections()
	defer cb.CloseIdleConnections()
	var setups, walls, peaks []float64
	var appends, advances, reports, bytes []float64
	start := time.Now()
	for len(walls) < segments || time.Since(start) < e.budget {
		d, dt, err := startDaemon(cfg, ca)
		if err != nil {
			return t, err
		}
		setups = append(setups, dt.Seconds())
		if err := resetPeakRSS(strconv.Itoa(d.pid())); err != nil {
			d.stop()
			return t, fmt.Errorf("reset daemon peak RSS: %w", err)
		}
		r := replayHTTP(d.base, sched, ref.view, ca, cb)
		peak, err := peakRSS(strconv.Itoa(d.pid()))
		d.stop()
		ca.CloseIdleConnections()
		cb.CloseIdleConnections()
		if err != nil {
			return t, err
		}
		for _, msg := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: serve-replay:", msg)
		}
		t.add(r.tally)
		walls = append(walls, r.wall.Seconds())
		peaks = append(peaks, peak)
		appends = append(appends, millis(r.append)...)
		advances = append(advances, millis(r.advance)...)
		reports = append(reports, millis(r.report)...)
		bytes = append(bytes, r.reqBytes...)
	}
	b.add("setup_s", "s", setups)
	eps := make([]float64, len(walls))
	for i, w := range walls {
		eps[i] = float64(sched.rows) / w
	}
	b.add("events_per_s", "events/s", eps)
	b.add("peak_rss_mb", "MB", peaks)
	b.value("append_p50_ms", "ms", stats.Median(appends))
	b.value("append_p99_ms", "ms", stats.PercentileOf(appends, 99))
	b.value("advance_p90_ms", "ms", stats.PercentileOf(advances, 90))
	b.value("report_p50_ms", "ms", stats.Median(reports))
	b.extra("append_ms", "ms", appends)
	b.extra("advance_ms", "ms", advances)
	b.extra("report_ms", "ms", reports)
	b.extra("request_bytes", "bytes", bytes)
	b.note(fmt.Sprintf("replay: %d slices, %d fragments, %d rows per replay", len(sched.slices), sched.frags, sched.rows))
	return t, nil
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// board collects a run's metrics: the value reported for each (the median
// of its samples) plus a summary for the human-readable lines.
type board struct {
	names  []string
	units  map[string]string
	sums   map[string]stats.Summary
	extras []string // measured but not part of the result line
	notes  []string
}

func newBoard() *board {
	return &board{units: make(map[string]string), sums: make(map[string]stats.Summary)}
}

// add records a result metric whose value is the median of samples.
func (b *board) add(name, unit string, samples []float64) {
	b.names = append(b.names, name)
	b.units[name] = unit
	b.sums[name] = stats.Summarize(samples)
}

// value records a result metric measured once.
func (b *board) value(name, unit string, v float64) { b.add(name, unit, []float64{v}) }

// extra records a summary that is printed but not reported in the result.
func (b *board) extra(name, unit string, samples []float64) {
	b.extras = append(b.extras, name)
	b.units[name] = unit
	b.sums[name] = stats.Summarize(samples)
}

func (b *board) note(s string) { b.notes = append(b.notes, s) }
