// Command benchguard compares a `go test -bench -benchmem` run against a
// checked-in baseline and fails when allocations regress.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchguard -baseline bench_baseline.txt
//
// Only allocs/op is guarded by default: unlike ns/op it is deterministic
// for a given code path — independent of the machine, CPU contention, and
// frequency scaling — so a CI runner can enforce a tight threshold without
// flaking. A benchmark regresses when its allocs/op exceeds the baseline by
// more than -tolerance (default 10%). The ns/op delta against the baseline
// is printed alongside each verdict line for trend visibility; by default it
// is informational only and never fails the run. Passing -ns-tolerance opts
// into gating wall time too — a benchmark then also fails when its ns/op
// exceeds the baseline by more than that fraction. Reserve it for quiet,
// pinned machines: on shared CI runners the timing gate WILL flake, which is
// exactly why it is off by default. Benchmarks absent from the baseline are
// reported but don't fail the run (add them to the baseline when they
// stabilize); baseline entries missing from the input fail it, so the guard
// can't rot silently when a benchmark is renamed.
//
// Custom b.ReportMetric values (events/s throughput, flow counts, …) are
// parsed alongside the standard columns: they ride along in the -json
// document and the text delta table — with a percentage delta when the
// baseline carries the same metric — so throughput trends are recorded per
// run (see BENCH_*.json at the repo root). Like ns/op they never decide
// pass/fail: rates share all of wall time's machine-dependence.
//
// With -json the verdict is emitted as one JSON object instead of text:
// ns/op, B/op, and the custom metrics ride along for trend tracking, but
// the pass/fail decision still rests on allocs/op alone.
//
// To refresh the baseline after an intentional change, run EXACTLY the
// invocation the CI bench-regression job uses (.github/workflows/ci.yml) —
// allocs/op varies with -benchtime (per-run setup amortizes over more
// iterations), so a baseline recorded at a different iteration count would
// mismatch CI:
//
//	go test -run '^$' \
//	    -bench '^(BenchmarkAnalyzeCampaign|BenchmarkAnalyzePacket|BenchmarkAnalyzeSkewed|BenchmarkEngineChain|BenchmarkBinaryCodec|BenchmarkTableII|BenchmarkFlowOutput|BenchmarkDiagnosis|BenchmarkSessionIngest|BenchmarkSnapshot)$' \
//	    -benchmem -benchtime 1x . > bench_baseline.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's measurements from -benchmem output. Metrics
// carries the benchmark's b.ReportMetric values keyed by unit (e.g.
// "events/s"); the standard three columns stay in their own fields.
type Result struct {
	Name     string             `json:"name"`
	NsOp     float64            `json:"ns_op"`
	BytesOp  int64              `json:"bytes_op"`
	AllocsOp int64              `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Entry is one line of the verdict: a current Result joined with its
// baseline. Status is "ok", "fail" (regressed or missing from input), or
// "note" (not in the baseline yet).
type Entry struct {
	Result
	BaselineAllocs int64   `json:"baseline_allocs_op,omitempty"`
	DeltaPct       float64 `json:"delta_pct"`
	// BaselineNs and NsDeltaPct track wall-time drift against the baseline.
	// Informational only: ns/op never decides pass/fail (see package doc).
	BaselineNs float64 `json:"baseline_ns_op,omitempty"`
	NsDeltaPct float64 `json:"ns_delta_pct,omitempty"`
	// BaselineMetrics mirrors Result.Metrics for the baseline run, so the
	// delta table (and -json consumers) can show throughput drift. Also
	// informational only.
	BaselineMetrics map[string]float64 `json:"baseline_metrics,omitempty"`
	Status          string             `json:"status"`
	Detail          string             `json:"detail,omitempty"`
}

// report is the top-level -json document.
type report struct {
	Tolerance float64 `json:"tolerance"`
	// NsTolerance is the opt-in wall-time gate; 0 means ns/op was
	// informational for this run.
	NsTolerance float64 `json:"ns_tolerance,omitempty"`
	Pass        bool    `json:"pass"`
	Benchmarks  []Entry `json:"benchmarks"`
}

// gomaxprocsSuffix is the -8 in `BenchmarkName-8`: stripped so baselines
// recorded on one machine compare against runs on another.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseLine token-walks one line of the testing package's result format:
//
//	BenchmarkName-8   3   342105525 ns/op   2751657 events/s   84874053 B/op   190633 allocs/op
//
// After the name and the iteration count the line is (value, unit) pairs:
// ns/op, B/op, and allocs/op land in their Result fields, every other unit
// (b.ReportMetric) lands in Metrics. Lines without allocs/op are not
// benchmark results for our purposes (the guard needs -benchmem output) and
// are skipped, as is anything that doesn't look like a result line at all.
func parseLine(line string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false, nil
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return Result{}, false, nil
	}
	res := Result{Name: gomaxprocsSuffix.ReplaceAllString(f[0], "")}
	seenAllocs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value %q in %q: %w", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			res.NsOp = v
		case "B/op":
			res.BytesOp = int64(v)
		case "allocs/op":
			res.AllocsOp = int64(v)
			seenAllocs = true
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	if !seenAllocs {
		return Result{}, false, nil
	}
	return res, true, nil
}

// parse extracts benchmark results from -benchmem output. Repeated runs of
// the same name (e.g. -count=N) keep the last value.
func parse(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			out[res.Name] = res
		}
	}
	return out, sc.Err()
}

// check compares current allocs against the baseline. tolerance is
// fractional (0.10 = 10%); nsTolerance > 0 additionally gates ns/op at that
// fraction (0 keeps timing informational). Entries come back in
// deterministic order: baseline benchmarks sorted by name, then
// not-in-baseline notes.
func check(baseline, current map[string]Result, tolerance, nsTolerance float64) ([]Entry, bool) {
	var entries []Entry
	ok := true
	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name].AllocsOp
		cur, found := current[name]
		if !found {
			entries = append(entries, Entry{
				Result: Result{Name: name}, BaselineAllocs: base,
				Status: "fail", Detail: "in baseline but missing from input",
			})
			ok = false
			continue
		}
		delta := 0.0
		if base > 0 {
			delta = 100 * (float64(cur.AllocsOp)/float64(base) - 1)
		}
		e := Entry{Result: cur, BaselineAllocs: base, DeltaPct: delta, Status: "ok"}
		if baseNs := baseline[name].NsOp; baseNs > 0 && cur.NsOp > 0 {
			e.BaselineNs = baseNs
			e.NsDeltaPct = 100 * (cur.NsOp/baseNs - 1)
		}
		if len(baseline[name].Metrics) > 0 {
			e.BaselineMetrics = baseline[name].Metrics
		}
		if float64(cur.AllocsOp) > float64(base)*(1+tolerance) {
			e.Status = "fail"
			e.Detail = fmt.Sprintf("%+.1f%% > %.0f%% tolerance", delta, tolerance*100)
			ok = false
		}
		if nsTolerance > 0 && e.BaselineNs > 0 && cur.NsOp > e.BaselineNs*(1+nsTolerance) {
			e.Status = "fail"
			nsDetail := fmt.Sprintf("ns/op %+.1f%% > %.0f%% ns-tolerance", e.NsDeltaPct, nsTolerance*100)
			if e.Detail != "" {
				e.Detail += "; " + nsDetail
			} else {
				e.Detail = nsDetail
			}
			ok = false
		}
		entries = append(entries, e)
	}
	extras := make([]string, 0, len(current))
	for name := range current {
		if _, known := baseline[name]; !known {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		entries = append(entries, Entry{Result: current[name], Status: "note"})
	}
	return entries, ok
}

// fmtMetric prints a metric value compactly: integers without a fraction,
// everything else in shortest-round-trip form.
func fmtMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// metricsSuffix renders an entry's custom metrics for the delta table, with
// a percentage drift wherever the baseline recorded the same unit. Always
// informational — throughput is as machine-bound as wall time.
func metricsSuffix(e Entry) string {
	if len(e.Metrics) == 0 {
		return ""
	}
	units := make([]string, 0, len(e.Metrics))
	for u := range e.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	var b strings.Builder
	for _, u := range units {
		v := e.Metrics[u]
		if bv, ok := e.BaselineMetrics[u]; ok && bv != 0 {
			fmt.Fprintf(&b, "; %s %s vs baseline %s (%+.1f%%)", fmtMetric(v), u, fmtMetric(bv), 100*(v/bv-1))
		} else {
			fmt.Fprintf(&b, "; %s %s", fmtMetric(v), u)
		}
	}
	return b.String()
}

// render turns entries into the human verdict lines. The trailing ns/op
// delta, when baseline timing is available, is marked non-fatal unless the
// run opted into the -ns-tolerance gate; custom metrics follow it,
// informational always.
func render(entries []Entry, tolerance, nsTolerance float64) []string {
	lines := make([]string, 0, len(entries))
	for _, e := range entries {
		ns := ""
		if e.BaselineNs > 0 && e.NsOp > 0 {
			if nsTolerance > 0 {
				ns = fmt.Sprintf("; %.0f ns/op vs baseline %.0f (%+.1f%%)",
					e.NsOp, e.BaselineNs, e.NsDeltaPct)
			} else {
				ns = fmt.Sprintf("; %.0f ns/op vs baseline %.0f (%+.1f%%, non-fatal)",
					e.NsOp, e.BaselineNs, e.NsDeltaPct)
			}
		}
		ns += metricsSuffix(e)
		switch {
		case e.Status == "fail" && e.Detail == "in baseline but missing from input":
			lines = append(lines, fmt.Sprintf("FAIL %s: %s", e.Name, e.Detail))
		case e.Status == "fail":
			lines = append(lines, fmt.Sprintf("FAIL %s: %d allocs/op, baseline %d (%s)%s",
				e.Name, e.AllocsOp, e.BaselineAllocs, e.Detail, ns))
		case e.Status == "note":
			lines = append(lines, fmt.Sprintf("note %s: %d allocs/op, not in baseline%s", e.Name, e.AllocsOp, metricsSuffix(e)))
		default:
			lines = append(lines, fmt.Sprintf("ok   %s: %d allocs/op, baseline %d (%+.1f%%)%s",
				e.Name, e.AllocsOp, e.BaselineAllocs, e.DeltaPct, ns))
		}
	}
	return lines
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.txt", "baseline benchmark output to compare against")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional allocs/op regression")
	nsTolerance := flag.Float64("ns-tolerance", 0, "opt-in fractional ns/op regression gate (0 = informational only; timing flakes on shared runners)")
	jsonOut := flag.Bool("json", false, "emit the verdict as one JSON object (ns/op and B/op included)")
	flag.Parse()

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fatal(err)
	}
	baseline, err := parse(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}
	if len(baseline) == 0 {
		fatal(fmt.Errorf("no benchmark lines in baseline %s", *baselinePath))
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	current, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark lines in input (run with -bench and -benchmem)"))
	}

	entries, ok := check(baseline, current, *tolerance, *nsTolerance)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Tolerance: *tolerance, NsTolerance: *nsTolerance, Pass: ok, Benchmarks: entries}); err != nil {
			fatal(err)
		}
	} else {
		fmt.Println(strings.Join(render(entries, *tolerance, *nsTolerance), "\n"))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
