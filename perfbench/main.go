// Command perfbench is REFILL's benchmark: it drives one workload through
// its front door for a fixed time, checks every output against a serial
// batch reference, and prints each metric by name with its unit. The last
// line of standard output is a JSON result:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {"events_per_s": {"value": 2.1e6, "unit": "events/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones: set-up time,
// throughput and peak resident set (plus the HTTP latencies on the ungated
// serve-replay workload); accuracy against simulator ground truth is
// printed on the summary lines. With -trace 1 the run instead times the
// calls into each module's public functions on the workload's input and
// reports per-layer metrics. perfbench/run.py builds this command and
// refill-serve and runs it from the repository root; perfbench/METRICS.md
// lists the workloads and metrics.
//
// Usage:
//
//	perfbench -work DIR -bin DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench gen -kind campaign|hotorigin -seed N -out DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload to its input kind and its untraced runner:
// a segment runner for the gated workloads, measured in segment processes,
// or a runner that fills the board itself.
var workloads = map[string]struct {
	kind    string
	segment segmentFunc
	run     func(*env, *input, *board) (tally, error)
}{
	"campaign-batch":  {kind: kindCampaign, segment: campaignBatch},
	"snapshot-ooc":    {kind: kindCampaign, segment: snapshotOOC},
	"hotorigin-batch": {kind: kindHotOrigin, segment: hotOriginBatch},
	"serve-replay":    {kind: kindCampaign, run: serveReplay},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		work     = flag.String("work", ".bench_build", "directory for inputs, snapshots, logs and traces")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the refill-serve binary")
		workload = flag.String("workload", "campaign-batch", "workload name")
		seed     = flag.Int64("seed", 7, "input seed")
		seconds  = flag.Float64("seconds", 10, "measurement time")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
		segment  = flag.Bool("segment", false, "run one segment of a gated workload and print its samples (internal)")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	runDir := filepath.Join(*work, "runs", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(runDir)
	e := &env{budget: time.Duration(*seconds * float64(time.Second)), bin: *bin, runDir: runDir}
	in, err := loadInput(*work, w.kind, *seed)
	if err != nil {
		fatal(err)
	}
	if *segment {
		if w.segment == nil {
			fatal(fmt.Errorf("%s has no segments", *workload))
		}
		if err := segmentMain(e, w.segment, in); err != nil {
			os.RemoveAll(runDir)
			fatal(err)
		}
		return
	}
	fmt.Println(in.meta.describe())
	b := newBoard()
	var t tally
	switch {
	case *trace == 1:
		tracePath := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		t, err = traced(e, in, b, tracePath)
	case w.segment != nil:
		childArgs := []string{"-work", *work, "-bin", *bin, "--workload", *workload, "--seed", fmt.Sprint(*seed)}
		t, err = runGated(e, childArgs, in, b)
	default:
		t, err = w.run(e, in, b)
	}
	if err != nil {
		os.RemoveAll(runDir)
		fatal(err)
	}
	b.print(*workload, *seed, t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes one summary line per metric, then the JSON result line.
func (b *board) print(workload string, seed int64, t tally) {
	for _, n := range b.notes {
		fmt.Println(n)
	}
	line := func(name string) {
		s := b.sums[name]
		tail := "-"
		if s.TailPct > 0 {
			tail = fmt.Sprintf("p%g=%.6g", s.TailPct, s.Tail)
		}
		fmt.Printf("%-34s %-9s median=%-12.6g q1=%-12.6g q3=%-12.6g %-18s n=%d\n",
			name, b.units[name], s.Median, s.Q1, s.Q3, tail, s.N)
	}
	for _, n := range b.names {
		line(n)
	}
	extras := append([]string(nil), b.extras...)
	sort.Strings(extras)
	for _, n := range extras {
		line(n)
	}
	errRate := 0.0
	if t.attempted > 0 {
		errRate = float64(t.failed) / float64(t.attempted)
	}
	fmt.Printf("%s seed=%d: attempted=%d failed=%d error_rate=%g\n", workload, seed, t.attempted, t.failed, errRate)
	r := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metricValue, len(b.names))}
	for _, n := range b.names {
		r.Metrics[n] = metricValue{Value: b.sums[n].Median, Unit: b.units[n]}
	}
	raw, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}
