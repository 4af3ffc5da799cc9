package main

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/sim/network"
	"repro/internal/workload"
)

// Input kinds. Three workloads share the CitySee campaign at SmallCampaign
// scale; hotorigin-batch runs the TinyCampaign with one origin blown up.
const (
	kindCampaign  = "campaign"
	kindHotOrigin = "hotorigin"
)

// hotRows is the size the hot-origin input is grown to by replicating its
// busiest origin's packets, which then carry about four fifths of all
// packets. Growing to a fixed size, rather than by a fixed factor, keeps
// the input the same size whatever the seed.
const hotRows = 860000

// keepInputs bounds the on-disk input cache (each entry is tens of MB).
const keepInputs = 12

// inputMeta records the input properties later comparisons cite. It is
// written next to the cached logs.
type inputMeta struct {
	Kind           string  `json:"kind"`
	Seed           int64   `json:"seed"`
	Config         string  `json:"config"`
	Sink           uint32  `json:"sink"`
	End            int64   `json:"end"`
	Rows           int     `json:"rows"`
	Packets        int     `json:"packets"`
	Nodes          int     `json:"nodes"`
	MaxOriginShare float64 `json:"max_origin_share"`
	InferredFrac   float64 `json:"inferred_frac"`
	Horizon        int64   `json:"horizon"`
	TextBytes      int64   `json:"text_bytes"`
}

// input is one cached, generated input: the text logs on disk plus the
// simulator's ground truth, loaded.
type input struct {
	meta  inputMeta
	dir   string
	fates map[event.PacketID]network.Fate
}

func (in *input) sink() event.NodeID { return event.NodeID(in.meta.Sink) }

// readLogs decodes the cached text logs, as `refill -logs` does.
func (in *input) readLogs() (*event.Collection, error) {
	f, err := os.Open(filepath.Join(in.dir, "logs.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := event.ReadCollection(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", f.Name(), err)
	}
	return c, nil
}

func inputConfig(kind string, seed int64) (workload.CitySeeConfig, error) {
	switch kind {
	case kindCampaign:
		cfg := experiments.SmallCampaign()
		cfg.Seed = seed
		return cfg, nil
	case kindHotOrigin:
		return workload.Tiny(seed), nil
	}
	return workload.CitySeeConfig{}, fmt.Errorf("unknown input kind %q", kind)
}

// cacheKey names an input by kind, seed and a hash of its full config.
func cacheKey(kind string, seed int64, cfg workload.CitySeeConfig) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v hotRows=%d", cfg, hotRows)
	return fmt.Sprintf("%s-%d-%08x", kind, seed, h.Sum32())
}

// loadInput returns the cached input for (kind, seed), generating it first
// in a child process when absent. Generating out of process keeps the
// simulator's memory out of the measuring process's resident set.
func loadInput(work, kind string, seed int64) (*input, error) {
	cfg, err := inputConfig(kind, seed)
	if err != nil {
		return nil, err
	}
	root := filepath.Join(work, "inputs")
	dir := filepath.Join(root, cacheKey(kind, seed, cfg))
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); err != nil {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "gen", "-kind", kind, "-seed", fmt.Sprint(seed), "-out", dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("generate %s input: %w", kind, err)
		}
		pruneInputs(root, dir)
	}
	now := time.Now()
	_ = os.Chtimes(dir, now, now) // recency for pruneInputs; best effort
	return readInput(dir)
}

// readInput loads an input directory written by writeInput, leaving the
// logs on disk.
func readInput(dir string) (*input, error) {
	in := &input{dir: dir}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &in.meta); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, "truth.gob"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []fateRec
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&recs); err != nil {
		return nil, fmt.Errorf("truth.gob: %w", err)
	}
	in.fates = make(map[event.PacketID]network.Fate, len(recs))
	for _, r := range recs {
		in.fates[r.Packet] = r.Fate
	}
	return in, nil
}

// pruneInputs deletes the least recently used cache entries beyond
// keepInputs, never keep itself.
func pruneInputs(root, keep string) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type entry struct {
		path string
		mod  time.Time
	}
	var all []entry
	for _, e := range ents {
		p := filepath.Join(root, e.Name())
		if !e.IsDir() || p == keep {
			continue
		}
		if fi, err := e.Info(); err == nil {
			all = append(all, entry{p, fi.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.After(all[j].mod) })
	for i := keepInputs - 1; i < len(all); i++ {
		os.RemoveAll(all[i].path)
	}
}

type fateRec struct {
	Packet event.PacketID
	Fate   network.Fate
}

// genMain is the `gen` subcommand: simulate one input and write it to -out.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", kindCampaign, "input kind")
	seed := fs.Int64("seed", 1, "simulator seed")
	out := fs.String("out", "", "output directory")
	fs.Parse(args)
	cfg, err := inputConfig(*kind, *seed)
	if err != nil {
		return err
	}
	res, err := workload.Run(cfg)
	if err != nil {
		return err
	}
	logs := res.Logs
	if *kind == kindHotOrigin {
		if logs, err = hotOrigin(logs, hotRows); err != nil {
			return err
		}
	}
	meta := inputMeta{Kind: *kind, Seed: *seed, Config: fmt.Sprintf("%+v", cfg)}
	return writeInput(*out, meta, res, logs)
}

// writeInput writes logs (the campaign's own, or grown from them) with the
// campaign's ground truth and the input's properties to out, atomically:
// into a temporary directory that is then renamed.
func writeInput(out string, meta inputMeta, res *workload.Result, logs *event.Collection) error {
	tmp := fmt.Sprintf("%s.tmp-%d", out, os.Getpid())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	textBytes, err := writeLogs(filepath.Join(tmp, "logs.txt"), logs)
	if err != nil {
		return err
	}
	recs := make([]fateRec, 0, len(res.Truth.Fates))
	for id, f := range res.Truth.Fates {
		recs = append(recs, fateRec{id, f})
	}
	sort.Slice(recs, func(i, j int) bool { return packetLess(recs[i].Packet, recs[j].Packet) })
	if err := writeFile(filepath.Join(tmp, "truth.gob"), func(w *bufio.Writer) error {
		return gob.NewEncoder(w).Encode(recs)
	}); err != nil {
		return err
	}
	meta.Sink, meta.End = uint32(res.Sink), int64(res.Duration)
	meta.Rows, meta.Nodes = logs.TotalEvents(), len(logs.Nodes())
	meta.Horizon, meta.TextBytes = event.MaxPacketSpread(logs), textBytes
	meta.Packets, meta.MaxOriginShare = originShares(logs)
	an, err := core.NewAnalyzer(core.Options{Sink: res.Sink, End: meta.End})
	if err != nil {
		return err
	}
	meta.InferredFrac = inferredFrac(an.Analyze(logs).Result.Flows)
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), raw, 0o644); err != nil {
		return err
	}
	os.RemoveAll(out)
	return os.Rename(tmp, out)
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeLogs(path string, c *event.Collection) (int64, error) {
	if err := writeFile(path, func(w *bufio.Writer) error { return event.WriteCollection(w, c) }); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// hotOrigin replicates the busiest origin's packets under fresh sequence
// numbers until the collection holds about rows rows, so one origin carries
// most of the packet volume. Each replica row keeps its original's
// timestamp and per-node order, so every replica packet is as valid a
// packet log as its original.
//
// This is the transform of the root package's skewedLogs test helper
// (which cannot be imported) with two changes that keep the input the same
// across seeds: it grows to a row count instead of by a replica count, and
// "busiest" means the most logged rows, not the most packets. Every origin
// generates packets at the same rate, so the most-packets origin is
// whichever lost the fewest log records, at any depth in the tree, and the
// packet count of the grown input then varied 2.5-fold between seeds. The
// most-rows origin is a far corner of the grid on every seed.
func hotOrigin(logs *event.Collection, rows int) (*event.Collection, error) {
	rowsOf := make(map[event.NodeID]int)
	maxSeq := uint32(0)
	for _, n := range logs.Nodes() {
		b := logs.Log(n).Batch()
		for i := 0; i < b.Len(); i++ {
			if b.Type(i).PacketScoped() {
				maxSeq = max(maxSeq, b.Packet(i).Seq)
				rowsOf[b.Packet(i).Origin]++
			}
		}
	}
	hot, most := event.NoNode, 0
	for origin, n := range rowsOf {
		if n > most || (n == most && origin < hot) {
			hot, most = origin, n
		}
	}
	if most == 0 {
		return nil, fmt.Errorf("campaign has no packets")
	}
	reps := max(1, int(math.Round(float64(rows-logs.TotalEvents())/float64(most))))
	out := event.NewCollection()
	for _, n := range logs.Nodes() {
		evs := logs.Log(n).Events()
		grown := make([]event.Event, 0, len(evs)*2)
		for _, e := range evs {
			grown = append(grown, e)
			if e.Type.PacketScoped() && e.Packet.Origin == hot {
				for r := 1; r <= reps; r++ {
					ce := e
					ce.Packet.Seq = e.Packet.Seq + uint32(r)*(maxSeq+1)
					grown = append(grown, ce)
				}
			}
		}
		sort.SliceStable(grown, func(i, j int) bool { return grown[i].Time < grown[j].Time })
		l := out.Log(n)
		for _, e := range grown {
			l.Append(e)
		}
	}
	return out, nil
}

// originShares counts distinct packets and the largest share one origin
// holds.
func originShares(c *event.Collection) (packets int, maxShare float64) {
	seen := make(map[event.PacketID]bool)
	perOrigin := make(map[event.NodeID]int)
	for _, n := range c.Nodes() {
		b := c.Log(n).Batch()
		for i := 0; i < b.Len(); i++ {
			if !b.Type(i).PacketScoped() {
				continue
			}
			p := b.Packet(i)
			if !seen[p] {
				seen[p] = true
				perOrigin[p.Origin]++
			}
		}
	}
	most := 0
	for _, k := range perOrigin {
		most = max(most, k)
	}
	if len(seen) == 0 {
		return 0, 0
	}
	return len(seen), float64(most) / float64(len(seen))
}

func packetLess(a, b event.PacketID) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Seq < b.Seq
}

// describe renders the input properties as one line.
func (m inputMeta) describe() string {
	return fmt.Sprintf("input %s seed=%d: rows=%d packets=%d nodes=%d max_origin_share=%.4f inferred_frac=%.4f horizon_us=%d text_bytes=%d",
		m.Kind, m.Seed, m.Rows, m.Packets, m.Nodes, m.MaxOriginShare, m.InferredFrac, m.Horizon, m.TextBytes)
}
