package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU
BenchmarkAnalyzeCampaign-8   	       3	 342105525 ns/op	        28296 flows	84874053 B/op	  190633 allocs/op
BenchmarkEngineChain/hops=4-8 	   10000	      1042 ns/op	     512 B/op	       9 allocs/op
PASS
ok  	repro	2.5s
`

func mkResults(allocs map[string]int64) map[string]Result {
	out := make(map[string]Result, len(allocs))
	for n, a := range allocs {
		out[n] = Result{Name: n, AllocsOp: a}
	}
	return out
}

func TestParseStripsCPUSuffix(t *testing.T) {
	got, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	camp := got["BenchmarkAnalyzeCampaign"]
	if camp.AllocsOp != 190633 {
		t.Errorf("campaign allocs = %d", camp.AllocsOp)
	}
	if camp.NsOp != 342105525 || camp.BytesOp != 84874053 {
		t.Errorf("campaign ns/B = %v/%d, want 342105525/84874053", camp.NsOp, camp.BytesOp)
	}
	if camp.Metrics["flows"] != 28296 {
		t.Errorf("campaign metrics = %v, want the flows custom metric captured", camp.Metrics)
	}
	sub := got["BenchmarkEngineChain/hops=4"]
	if sub.AllocsOp != 9 || sub.NsOp != 1042 || sub.BytesOp != 512 || sub.Metrics != nil {
		t.Errorf("sub-benchmark = %+v", sub)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d entries, want 2: %v", len(got), got)
	}
}

// TestParseKeepsNameSuffixAtOneCPU pins the -N stripping to what the
// testing package does: at GOMAXPROCS=1 no name carries the suffix, so a
// sub-benchmark named steal-8 keeps its -8; on a multi-core run every name
// carries -2, and only that is stripped. Both runs must key the same names,
// or a baseline recorded on one reports its entries missing on the other.
func TestParseKeepsNameSuffixAtOneCPU(t *testing.T) {
	const oneCPU = `BenchmarkAnalyzeCampaign   1   289179249 ns/op   76601880 B/op   591 allocs/op
BenchmarkAnalyzeSkewed/steal-8   1   369173876 ns/op   132809048 B/op   1521 allocs/op
`
	const twoCPU = `BenchmarkAnalyzeCampaign-2   1   289179249 ns/op   76601880 B/op   591 allocs/op
BenchmarkAnalyzeSkewed/steal-8-2   1   369173876 ns/op   132809048 B/op   1521 allocs/op
`
	for name, out := range map[string]string{"-cpu 1": oneCPU, "-cpu 2": twoCPU} {
		got, err := parse(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"BenchmarkAnalyzeCampaign", "BenchmarkAnalyzeSkewed/steal-8"} {
			if _, ok := got[want]; !ok {
				t.Errorf("%s: %s missing from %v", name, want, got)
			}
		}
		if len(got) != 2 {
			t.Errorf("%s: parsed %d entries, want 2: %v", name, len(got), got)
		}
	}
}

// TestParseCustomMetrics pins the token walk on a line with a rate metric
// between ns/op and the -benchmem columns (where b.ReportMetric puts it),
// and that lines without allocs/op are not treated as results.
func TestParseCustomMetrics(t *testing.T) {
	const out = `BenchmarkAnalyzeSkewed/steal-8-8   5   294217110 ns/op   2919787 events/s   84874053 B/op   190633 allocs/op
BenchmarkNoMem-8   100   1042 ns/op
PASS
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d entries, want only the -benchmem line: %v", len(got), got)
	}
	r := got["BenchmarkAnalyzeSkewed/steal-8"]
	if r.Metrics["events/s"] != 2919787 || r.NsOp != 294217110 || r.AllocsOp != 190633 {
		t.Errorf("result = %+v", r)
	}
}

// TestMetricsInDeltaTable pins the rendered metric suffix: drift against the
// baseline where the unit matches, bare value where it doesn't, and no
// change to entries without metrics.
func TestMetricsInDeltaTable(t *testing.T) {
	base := map[string]Result{"BenchmarkX": {
		Name: "BenchmarkX", AllocsOp: 100, Metrics: map[string]float64{"events/s": 2000000},
	}}
	cur := map[string]Result{"BenchmarkX": {
		Name: "BenchmarkX", AllocsOp: 100, Metrics: map[string]float64{"events/s": 2500000, "flows": 42},
	}}
	entries, ok := check(base, cur, 0.10, 0)
	if !ok {
		t.Fatalf("flat allocs failed: %v", render(entries, 0.10, 0))
	}
	lines := render(entries, 0.10, 0)
	want := "ok   BenchmarkX: 100 allocs/op, baseline 100 (+0.0%); 2500000 events/s vs baseline 2000000 (+25.0%); 42 flows"
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("line = %q, want %q", lines, want)
	}
}

func TestCheckWithinTolerancePasses(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000})
	_, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1099}), 0.10, 0)
	if !ok {
		t.Error("9.9% regression failed under a 10% tolerance")
	}
	_, ok = check(base, mkResults(map[string]int64{"BenchmarkX": 900}), 0.10, 0)
	if !ok {
		t.Error("an improvement failed the guard")
	}
}

func TestCheckRegressionFails(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000})
	entries, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1101}), 0.10, 0)
	if ok {
		t.Errorf("10.1%% regression passed: %v", render(entries, 0.10, 0))
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000, "BenchmarkY": 5})
	entries, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1000}), 0.10, 0)
	if ok {
		t.Errorf("missing baseline benchmark passed: %v", render(entries, 0.10, 0))
	}
}

func TestCheckUnknownBenchmarkIsNoted(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000})
	entries, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1000, "BenchmarkNew": 7}), 0.10, 0)
	if !ok {
		t.Errorf("benchmark absent from baseline failed the run: %v", render(entries, 0.10, 0))
	}
	found := false
	for _, l := range render(entries, 0.10, 0) {
		if strings.Contains(l, "BenchmarkNew") && strings.HasPrefix(l, "note") {
			found = true
		}
	}
	if !found {
		t.Errorf("new benchmark not noted: %v", render(entries, 0.10, 0))
	}
}

// TestNsDeltaIsInformational pins the ns/op delta behavior: it is computed
// and rendered when both sides carry timing, but a huge wall-time regression
// alone never fails the run.
func TestNsDeltaIsInformational(t *testing.T) {
	base := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 1000, AllocsOp: 100}}
	cur := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 3000, AllocsOp: 100}}
	entries, ok := check(base, cur, 0.10, 0)
	if !ok {
		t.Fatalf("3x ns/op regression with flat allocs failed the guard: %v", render(entries, 0.10, 0))
	}
	if len(entries) != 1 || entries[0].BaselineNs != 1000 || entries[0].NsDeltaPct != 200 {
		t.Fatalf("entry = %+v, want baseline ns 1000 and +200%% delta", entries[0])
	}
	lines := render(entries, 0.10, 0)
	want := "ok   BenchmarkX: 100 allocs/op, baseline 100 (+0.0%); 3000 ns/op vs baseline 1000 (+200.0%, non-fatal)"
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("line = %q, want %q", lines, want)
	}
	// Entries without timing on either side keep the bare line.
	bare, _ := check(mkResults(map[string]int64{"BenchmarkY": 5}), mkResults(map[string]int64{"BenchmarkY": 5}), 0.10, 0)
	if l := render(bare, 0.10, 0); len(l) != 1 || strings.Contains(l[0], "ns/op") {
		t.Errorf("timing-less entry rendered a ns delta: %q", l)
	}
}

// TestNsToleranceGate pins the opt-in wall-time gate: with -ns-tolerance a
// ns/op regression beyond the fraction fails the run even when allocs are
// flat, within-tolerance drift still passes, and the rendered line drops the
// "non-fatal" marker.
func TestNsToleranceGate(t *testing.T) {
	base := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 1000, AllocsOp: 100}}

	slow := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 1600, AllocsOp: 100}}
	entries, ok := check(base, slow, 0.10, 0.50)
	if ok {
		t.Fatalf("+60%% ns/op passed a 50%% ns-tolerance: %v", render(entries, 0.10, 0.50))
	}
	if e := entries[0]; e.Status != "fail" || !strings.Contains(e.Detail, "ns-tolerance") {
		t.Errorf("entry = %+v, want a ns-tolerance fail", e)
	}
	if l := render(entries, 0.10, 0.50); strings.Contains(l[0], "non-fatal") {
		t.Errorf("gated render still says non-fatal: %q", l[0])
	}

	drift := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 1400, AllocsOp: 100}}
	if _, ok := check(base, drift, 0.10, 0.50); !ok {
		t.Error("+40% ns/op failed under a 50% ns-tolerance")
	}

	// Both gates tripping report both reasons.
	worse := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 1600, AllocsOp: 200}}
	entries, ok = check(base, worse, 0.10, 0.50)
	if ok {
		t.Fatal("double regression passed")
	}
	if d := entries[0].Detail; !strings.Contains(d, "tolerance") || !strings.Contains(d, "ns-tolerance") {
		t.Errorf("detail %q does not report both gates", d)
	}

	// Default (0) keeps timing informational — the pre-gate behavior.
	if _, ok := check(base, slow, 0.10, 0); !ok {
		t.Error("ns regression failed the run with the gate off")
	}
}

// TestCheckEntriesRoundTripJSON pins the -json document shape: every entry
// carries the measurements and a status, and the report marshals cleanly.
func TestCheckEntriesRoundTripJSON(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000, "BenchmarkGone": 3})
	cur := map[string]Result{
		"BenchmarkX":   {Name: "BenchmarkX", NsOp: 1.5e6, BytesOp: 4096, AllocsOp: 950},
		"BenchmarkNew": {Name: "BenchmarkNew", NsOp: 10, BytesOp: 0, AllocsOp: 0},
	}
	entries, ok := check(base, cur, 0.10, 0)
	if ok {
		t.Fatal("missing BenchmarkGone must fail the run")
	}
	raw, err := json.Marshal(report{Tolerance: 0.10, Pass: ok, Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Pass || back.Tolerance != 0.10 || len(back.Benchmarks) != 3 {
		t.Fatalf("round-tripped report = %+v", back)
	}
	byName := map[string]Entry{}
	for _, e := range back.Benchmarks {
		byName[e.Name] = e
	}
	if e := byName["BenchmarkX"]; e.Status != "ok" || e.BaselineAllocs != 1000 || e.AllocsOp != 950 || e.NsOp != 1.5e6 {
		t.Errorf("BenchmarkX entry = %+v", e)
	}
	if e := byName["BenchmarkGone"]; e.Status != "fail" || e.Detail == "" {
		t.Errorf("BenchmarkGone entry = %+v", e)
	}
	if e := byName["BenchmarkNew"]; e.Status != "note" {
		t.Errorf("BenchmarkNew entry = %+v", e)
	}
}

// TestRenderFormatsUnchanged keeps the human verdict lines in the shape CI
// logs have always shown.
func TestRenderFormatsUnchanged(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkA": 100, "BenchmarkB": 10})
	cur := mkResults(map[string]int64{"BenchmarkA": 200, "BenchmarkC": 1})
	entries, _ := check(base, cur, 0.10, 0)
	lines := render(entries, 0.10, 0)
	want := []string{
		"FAIL BenchmarkA: 200 allocs/op, baseline 100 (+100.0% > 10% tolerance)",
		"FAIL BenchmarkB: in baseline but missing from input",
		"note BenchmarkC: 1 allocs/op, not in baseline",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
