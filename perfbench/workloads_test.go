package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// tinyInput writes a small simulated campaign as a benchmark input.
func tinyInput(t *testing.T) *input {
	t.Helper()
	res, err := workload.Run(workload.Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "input")
	if err := writeInput(dir, inputMeta{Kind: "tiny", Seed: 3}, res, res.Logs); err != nil {
		t.Fatal(err)
	}
	in, err := readInput(dir)
	if err != nil {
		t.Fatal(err)
	}
	if in.meta.Rows != res.Logs.TotalEvents() || len(in.fates) != len(res.Truth.Fates) {
		t.Fatalf("input read back with %d rows and %d fates, want %d and %d",
			in.meta.Rows, len(in.fates), res.Logs.TotalEvents(), len(res.Truth.Fates))
	}
	return in
}

// spec is the part of BENCHMARK.json the result lines must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// units maps each reported metric to its unit.
func (b *board) unitsOf() map[string]string {
	out := make(map[string]string, len(b.names))
	for _, n := range b.names {
		out[n] = b.units[n]
	}
	return out
}

func wantUnits(ms []struct{ Name, Unit string }) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// Every gated workload reports exactly the end-to-end metrics BENCHMARK.json
// names, with their units, and fails no operation.
func TestGatedWorkloadsReportEveryEndToEndMetric(t *testing.T) {
	s := readSpec(t)
	in := tinyInput(t)
	for _, w := range s.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
		if run.segment == nil {
			t.Fatalf("%s is gated but has no segment runner", w.Name)
		}
		var tl tally
		got, _, err := run.segment(&env{runDir: t.TempDir()}, in, &tl)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if tl.attempted == 0 || tl.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, tl.failed, tl.attempted)
		}
		b := newBoard()
		endToEnd(b, in, got)
		if got, want := b.unitsOf(), wantUnits(s.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports %v, BENCHMARK.json names %v", w.Name, got, want)
		}
	}
}

// The traced run reports exactly the per-layer metrics BENCHMARK.json names,
// fails no check, and dumps its spans; the ungated serve-replay workload
// drains equal to the reference against a real refill-serve.
func TestTracedRunAndServeReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts refill-serve")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "refill-serve"), "repro/cmd/refill-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build refill-serve: %v\n%s", err, out)
	}
	s := readSpec(t)
	in := tinyInput(t)
	e := &env{bin: bin, runDir: t.TempDir()}

	b := newBoard()
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	tl, err := traced(e, in, b, spans)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != 0 {
		t.Errorf("traced: %d of %d checks failed", tl.failed, tl.attempted)
	}
	if got, want := b.unitsOf(), wantUnits(s.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run reports %v, BENCHMARK.json names %v", got, want)
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}

	b = newBoard()
	tl, err = serveReplay(e, in, b)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != 0 {
		t.Errorf("serve-replay: %d of %d requests failed", tl.failed, tl.attempted)
	}
}
