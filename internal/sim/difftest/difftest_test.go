package difftest

import (
	"bytes"
	"context"
	"flag"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/sim"
	"prophet/internal/triage"
	"prophet/internal/workloads"
)

// The block sizes under test. CI pins them explicitly; the default covers
// the same sizes so a plain `go test ./...` proves the whole contract too.
var blocksFlag = flag.String("difftest.blocks", "1,64,4096", "comma-separated block sizes to diff against the sequential reference")

func parseList(t *testing.T, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			t.Fatalf("bad matrix element %q: %v", f, err)
		}
		out = append(out, n)
	}
	return out
}

func variants(t *testing.T) []Variant {
	return Blocks(parseList(t, *blocksFlag))
}

// corpusCells mirrors the golden-fixture corpus at the repository root: one
// cell per scheme family, covering the temporal-table engines, RPG2's
// software-prefetch flow, the fused spatial-temporal gaze engine, the
// phase-adaptive wrapper, and the plain baseline.
var corpusCells = []struct {
	workload string
	scheme   string
	records  uint64
}{
	{"mcf", "prophet", 20_000},
	{"omnetpp", "triangel", 20_000},
	{"sphinx3", "triage", 20_000},
	{"xalancbmk", "rpg2", 20_000},
	{"mcf", "baseline", 20_000},
	{"omnetpp", "gaze", 20_000},
	{"sphinx3", "adaptive", 20_000},
}

// runCorpus replays every corpus cell through a fresh pipeline evaluator
// configured with the given execution shape.
func runCorpus(t *testing.T, opts sim.Opts) []pipeline.Outcome {
	t.Helper()
	cfg := pipeline.Default()
	cfg.Run = opts
	ev := pipeline.NewEvaluator(cfg, 1)
	out := make([]pipeline.Outcome, len(corpusCells))
	for i, cell := range corpusCells {
		w, ok := workloads.Get(cell.workload)
		if !ok {
			t.Fatalf("unknown workload %q", cell.workload)
		}
		records := cell.records
		out[i] = ev.Run(context.Background(), pipeline.Job{
			Key:     cell.workload + "@difftest",
			Factory: func() mem.Source { return w.Source(records) },
			Scheme:  cell.scheme,
		})
		if out[i].Err != nil {
			t.Fatalf("%s under %s (%+v): %v", cell.workload, cell.scheme, opts, out[i].Err)
		}
	}
	return out
}

// TestCorpusEquivalence is the harness's core claim: every golden-corpus
// cell, replayed at every block size, produces Stats bit-identical to the
// record-at-a-time sequential reference — scheme results, cached
// baselines, and scheme metadata alike.
func TestCorpusEquivalence(t *testing.T) {
	ref := runCorpus(t, Sequential.Opts)
	for _, v := range variants(t) {
		t.Run(v.Name, func(t *testing.T) {
			got := runCorpus(t, v.Opts)
			for i, cell := range corpusCells {
				name := cell.workload + "/" + cell.scheme
				if d := Diff(ref[i].Stats, got[i].Stats); d != nil {
					t.Errorf("%s: stats diverged from sequential reference:\n  %s",
						name, strings.Join(d, "\n  "))
				}
				if d := Diff(ref[i].Base, got[i].Base); d != nil {
					t.Errorf("%s: baseline stats diverged:\n  %s", name, strings.Join(d, "\n  "))
				}
				if !reflect.DeepEqual(ref[i].Meta, got[i].Meta) {
					t.Errorf("%s: scheme metadata diverged: %v != %v", name, ref[i].Meta, got[i].Meta)
				}
			}
		})
	}
}

// TestGeneratedWorkloadEquivalence widens coverage beyond the corpus: every
// cataloged generated workload, under both the bare system and a stateful
// temporal engine, at every block size. Trace lengths are short — the point
// is breadth of access patterns, not depth.
func TestGeneratedWorkloadEquivalence(t *testing.T) {
	cfg := sim.Default()
	const records = 4_000
	engines := []struct {
		name string
		make func() *triage.Prefetcher // nil = baseline system
	}{
		{"baseline", func() *triage.Prefetcher { return nil }},
		{"triage", func() *triage.Prefetcher { return triage.New(triage.Default()) }},
	}
	vs := variants(t)
	for _, w := range workloads.All() {
		recs := mem.Materialize(w.Source(records))
		for _, eng := range engines {
			var ref sim.Stats
			if e := eng.make(); e != nil {
				ref = sim.RunOpts(cfg, Sequential.Opts, e, nil, nil, nil, mem.NewSliceSource(recs))
			} else {
				ref = sim.RunOpts(cfg, Sequential.Opts, nil, nil, nil, nil, mem.NewSliceSource(recs))
			}
			for _, v := range vs {
				var got sim.Stats
				if e := eng.make(); e != nil {
					got = sim.RunOpts(cfg, v.Opts, e, nil, nil, nil, mem.NewSliceSource(recs))
				} else {
					got = sim.RunOpts(cfg, v.Opts, nil, nil, nil, nil, mem.NewSliceSource(recs))
				}
				if d := Diff(ref, got); d != nil {
					t.Errorf("%s/%s at %s diverged:\n  %s", w.Name, eng.name, v.Name, strings.Join(d, "\n  "))
				}
			}
		}
	}
}

// TestTraceReaderBlockEquivalence replays every block size over a streaming
// native TraceReader, whose NextBlock decodes straight from the byte stream
// instead of slicing an in-memory trace. Every shape must see the exact
// record sequence the record-at-a-time reader delivers.
func TestTraceReaderBlockEquivalence(t *testing.T) {
	w, ok := workloads.Get("omnetpp")
	if !ok {
		t.Fatal("unknown workload omnetpp")
	}
	var buf bytes.Buffer
	if _, err := mem.WriteTrace(&buf, w.Source(6_000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	open := func() mem.Source {
		tr, err := mem.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cfg := sim.Default()
	ref := sim.RunOpts(cfg, Sequential.Opts, nil, nil, nil, nil, open())
	for _, v := range variants(t) {
		got := sim.RunOpts(cfg, v.Opts, nil, nil, nil, nil, open())
		if d := Diff(ref, got); d != nil {
			t.Errorf("trace replay at %s diverged:\n  %s", v.Name, strings.Join(d, "\n  "))
		}
	}
}

// TestMixedOptsPoolStress hammers one configuration's scratch pools with
// concurrent runs at mixed block sizes. The pools are keyed by
// (Config, Opts), so no run may ever receive scratch prepared for a
// different shape — under -race this catches pool cross-contamination, and
// the stats check catches any state bleed between shapes.
func TestMixedOptsPoolStress(t *testing.T) {
	cfg := sim.Default()
	w, ok := workloads.Get("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	recs := mem.Materialize(w.Source(5_000))
	ref := sim.RunOpts(cfg, Sequential.Opts, nil, nil, nil, nil, mem.NewSliceSource(recs))
	vs := append([]Variant{Sequential}, variants(t)...)
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, v := range vs {
			wg.Add(1)
			go func(v Variant) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					st := sim.RunOpts(cfg, v.Opts, nil, nil, nil, nil, mem.NewSliceSource(recs))
					if d := Diff(ref, st); d != nil {
						t.Errorf("%s diverged under mixed-shape load:\n  %s", v.Name, strings.Join(d, "\n  "))
					}
				}
			}(v)
		}
	}
	wg.Wait()
}

// FuzzRunBlocks lets the fuzzer pick the execution shape: an arbitrary
// block size (including negative = sequential and absurdly large) over an
// arbitrary cataloged workload must reproduce the sequential reference
// exactly.
func FuzzRunBlocks(f *testing.F) {
	f.Add(uint8(0), uint16(1000), 1)
	f.Add(uint8(1), uint16(2000), 4096)
	f.Add(uint8(2), uint16(500), -7)
	f.Add(uint8(3), uint16(3000), 64)
	f.Add(uint8(4), uint16(1), 1<<14)
	cfg := sim.Default()
	all := workloads.All()
	f.Fuzz(func(t *testing.T, wsel uint8, records uint16, block int) {
		w := all[int(wsel)%len(all)]
		// Bound the block size (it sizes the scratch buffer) but keep the
		// sign, so negative = sequential stays reachable.
		block %= 1 << 15
		n := uint64(records)%4_096 + 1
		recs := mem.Materialize(w.Source(n))
		ref := sim.RunOpts(cfg, Sequential.Opts, nil, nil, nil, nil, mem.NewSliceSource(recs))
		got := sim.RunOpts(cfg, sim.Opts{BlockRecords: block}, nil, nil, nil, nil, mem.NewSliceSource(recs))
		if d := Diff(ref, got); d != nil {
			t.Errorf("%s at block=%d diverged:\n  %s", w.Name, block, strings.Join(d, "\n  "))
		}
	})
}
