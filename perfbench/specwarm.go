package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"prophet"
	"prophet/internal/analysis"
	"prophet/internal/ingest"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/pmu"
	"prophet/internal/sim"
	"prophet/internal/stats"
	"prophet/internal/triage"
	"prophet/internal/triangel"
	"prophet/internal/workloads"
)

// specInputs are the SPEC-like catalog inputs, run at their catalog default
// lengths; the simulated geomeans are taken over these four only.
var specInputs = []string{"mcf", "omnetpp", "sphinx3", "xalancbmk"}

var specSchemes = []prophet.Scheme{prophet.Triage, prophet.Triangel, prophet.Prophet}

// champRecords is the access count of the seeded ChampSim input.
const champRecords = 220_000

// specWarm sweeps the catalog inputs plus a seeded ChampSim trace under the
// three temporal schemes on one worker. Set-up writes the trace,
// materializes every input and simulates the baselines, so the timed sweeps
// run scheme simulations only.
type specWarm struct {
	env   *env
	ev    *prophet.Evaluator
	champ string
	reps  int
	jobs  []prophet.Job
	// ref holds the first sweep's rows; every later sweep, traced or not,
	// must reproduce them exactly.
	ref []specCell

	// The current pass: the next cell, complete sweeps, each cell's times
	// and instructions, and the cells of the sweep in progress and of the
	// last complete one.
	rec         *recorder
	pos, sweeps int
	times       [][]time.Duration
	instr       []uint64
	cur, cells  []specCell
	trace       int64

	// Traced-pass state: materialized inputs and their baselines, the
	// simulation passes with their host time, and phase totals per sweep.
	cfg        pipeline.Config
	recs       [][]mem.Access
	base       []sim.Stats
	passes     []simPass
	phase      map[string]float64
	phaseMs    map[string][]float64
	baselineMs float64
}

type simPass struct {
	took time.Duration
	st   sim.Stats
}

type specCell struct {
	input  string
	scheme prophet.Scheme
	st     prophet.RunStats
	meta   map[string]int
}

func (s *specWarm) headline() string { return "sim_mips" }
func (s *specWarm) shape() runInfo   { return runInfo{Workers: 1} }
func (s *specWarm) close()           {}

func (s *specWarm) workloads() []prophet.Workload {
	ws := make([]prophet.Workload, 0, len(specInputs)+1)
	for _, n := range specInputs {
		ws = append(ws, prophet.Workload{Name: n})
	}
	return append(ws, prophet.Workload{Name: "champsim:" + s.champ})
}

func (s *specWarm) setup(ctx context.Context) (time.Duration, error) {
	if s.reps > 0 {
		os.Remove(s.champ)
		if err := evictTraces(ctx); err != nil {
			return 0, err
		}
	}
	s.reps++
	t0 := time.Now()
	s.champ = filepath.Join(s.env.dir, fmt.Sprintf("spec-%d.champsim", s.reps))
	if err := writeChampSim(s.champ, s.env.seed, champRecords); err != nil {
		return 0, err
	}
	s.ev = prophet.New(prophet.WithWorkers(1), prophet.WithLogf(discardLogf))
	ws := s.workloads()
	rows, err := s.ev.Sweep(ctx, prophet.Jobs(ws, prophet.Baseline)...)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Err != nil {
			return 0, r.Err
		}
	}
	s.jobs = prophet.Jobs(ws, specSchemes...)
	return took, nil
}

// evictTraces pushes eight tiny traces through the pipeline's process-wide
// FIFO of materialized traces, which holds eight, so the next set-up
// materializes its inputs again as a fresh process would.
func evictTraces(ctx context.Context) error {
	ev := prophet.New(prophet.WithWorkers(1), prophet.WithLogf(discardLogf))
	jobs := make([]prophet.Job, 8)
	for i := range jobs {
		jobs[i] = prophet.Job{Workload: prophet.Workload{Name: "mcf", Records: uint64(1000 + i)}, Scheme: prophet.Baseline}
	}
	_, err := ev.Sweep(ctx, jobs...)
	return err
}

// begin starts a pass. An untraced pass runs each cell as its own one-job
// Evaluator.Sweep call, so each is timed; with one worker a whole-list
// Sweep runs the same calls in the same order. A traced pass opens the
// Evaluator up: each cell calls the pipeline's entry points directly
// (RunTriage, RunTriangel, and Prophet's Profile, Learn, Analyze and Run)
// inside spans, on the same materialized inputs, and its rows must equal
// the Evaluator's.
func (s *specWarm) begin(ctx context.Context, rec *recorder) error {
	s.rec = rec
	s.pos, s.sweeps = 0, 0
	s.cur, s.cells = nil, nil
	s.times = make([][]time.Duration, len(s.jobs))
	s.instr = make([]uint64, len(s.jobs))
	if rec == nil {
		return nil
	}
	s.cfg = pipeline.Default()
	inputs := s.workloads()
	s.recs = make([][]mem.Access, len(inputs))
	s.base = make([]sim.Stats, len(inputs))
	s.baselineMs = 0
	s.passes = nil
	s.phase, s.phaseMs = map[string]float64{}, map[string][]float64{}
	for i, w := range inputs {
		src, err := w.Open()
		if err != nil {
			return err
		}
		s.recs[i] = mem.Materialize(src)
		id := rec.begin("pipeline.baseline", w.Name, 0, -int64(i+1))
		t0 := time.Now()
		s.base[i] = pipeline.RunBaseline(s.cfg.Sim, mem.NewSliceSource(s.recs[i]))
		took := time.Since(t0)
		rec.end(id)
		s.baselineMs += ms(took)
		s.passes = append(s.passes, simPass{took, s.base[i]})
	}
	return nil
}

// step runs the next cell of the sweep in progress.
func (s *specWarm) step(ctx context.Context) error {
	k := s.pos
	job := s.jobs[k]
	in := k / len(specSchemes)
	var cell specCell
	var instr uint64
	var rowErr error
	var took time.Duration
	if s.rec == nil {
		t0 := time.Now()
		rs, err := s.ev.Sweep(ctx, job)
		took = time.Since(t0)
		if err != nil {
			return err
		}
		r := rs[0]
		cell = specCell{input: job.Workload.Name, scheme: job.Scheme, st: r.Stats, meta: r.Meta}
		instr, rowErr = r.Stats.Raw.Instructions, r.Err
	} else {
		s.trace++
		id := s.rec.begin("spec.cell", job.Workload.Name+"/"+string(job.Scheme), 0, s.trace)
		t0 := time.Now()
		st, meta := s.runCell(s.cfg, job.Scheme, s.recs[in], s.rec, id, s.trace, s.phase)
		took = time.Since(t0)
		s.rec.end(id)
		cell = specCell{input: job.Workload.Name, scheme: job.Scheme, st: runStats(st, s.base[in]), meta: meta}
		instr = st.Core.Instructions
	}
	s.times[k] = append(s.times[k], took)
	s.instr[k] = instr
	s.checkRow(k, cell, rowErr)
	s.cur = append(s.cur, cell)
	if s.pos++; s.pos < len(s.jobs) {
		return nil
	}
	// A sweep is complete.
	if s.ref == nil {
		s.ref = s.cur
	}
	s.checkOrdering(s.cur)
	s.cells, s.cur, s.pos = s.cur, nil, 0
	s.sweeps++
	if s.rec != nil {
		for name, v := range s.phase {
			s.phaseMs[name] = append(s.phaseMs[name], v)
		}
		s.phase = map[string]float64{}
	}
	return nil
}

// enough asks for two sweeps untraced, so each cell's time is a median,
// and one traced.
func (s *specWarm) enough() bool { return s.sweeps >= 2 || s.rec != nil && s.sweeps >= 1 }

func (s *specWarm) end(ctx context.Context) (map[string]float64, error) {
	if s.cells == nil {
		return nil, fmt.Errorf("no complete sweep")
	}
	m := specGeomeans(s.cells)
	m["sim_mips"] = simMIPS(s.instr, s.times)
	s.env.info["spec.samples.sweeps"] = float64(s.sweeps)
	return m, nil
}

// simMIPS is the instructions of one sweep's rows over the sum of each
// cell's median host time across the pass.
func simMIPS(instr []uint64, times [][]time.Duration) float64 {
	var total uint64
	var secs float64
	for i := range instr {
		total += instr[i]
		secs += median(durs(times[i], time.Second))
	}
	return float64(total) / secs / 1e6
}

// checkRow records one delivered row: it must carry no error and, once a
// reference sweep exists, repeat the reference row exactly.
func (s *specWarm) checkRow(i int, c specCell, err error) {
	if err != nil {
		s.env.led.op(false, "spec-warm row %d: %v", i, err)
		return
	}
	if s.ref == nil {
		s.env.led.op(true, "")
		return
	}
	ref := s.ref[i]
	s.env.led.op(reflect.DeepEqual(c.st, ref.st) && maps.Equal(c.meta, ref.meta),
		"spec-warm row %d (%s/%s) differs from the first sweep", i, ref.input, ref.scheme)
}

// checkOrdering records the paper's ordering on the catalog geomeans,
// prophet >= triangel >= triage, as one operation per sweep.
func (s *specWarm) checkOrdering(cells []specCell) {
	g := specGeomeans(cells)
	p, tl, tg := g["speedup_geo.prophet"], g["speedup_geo.triangel"], g["speedup_geo.triage"]
	s.env.led.op(p >= tl && tl >= tg, "speedup geomeans out of order: prophet %.4f triangel %.4f triage %.4f", p, tl, tg)
}

// specGeomeans computes the simulated metrics over the catalog inputs.
func specGeomeans(cells []specCell) map[string]float64 {
	speed := map[prophet.Scheme][]float64{}
	var traffic, coverage []float64
	for _, c := range cells {
		if !isCatalog(c.input) {
			continue
		}
		speed[c.scheme] = append(speed[c.scheme], c.st.Speedup)
		if c.scheme == prophet.Prophet {
			traffic = append(traffic, c.st.NormalizedTraffic)
			coverage = append(coverage, c.st.Coverage)
		}
	}
	return map[string]float64{
		"speedup_geo.triage":       stats.Geomean(speed[prophet.Triage]),
		"speedup_geo.triangel":     stats.Geomean(speed[prophet.Triangel]),
		"speedup_geo.prophet":      stats.Geomean(speed[prophet.Prophet]),
		"traffic_norm_geo.prophet": stats.Geomean(traffic),
		"coverage_geo.prophet":     stats.Geomean(coverage),
	}
}

func isCatalog(name string) bool {
	for _, n := range specInputs {
		if n == name {
			return true
		}
	}
	return false
}

// runCell runs one (input, scheme) cell through the pipeline's entry points,
// one span per call, and adds each call's milliseconds to phase.
func (s *specWarm) runCell(cfg pipeline.Config, sch prophet.Scheme, recs []mem.Access, rec *recorder, parent int, trace int64, phase map[string]float64) (sim.Stats, map[string]int) {
	step := func(name string, fn func()) time.Duration {
		id := rec.begin(name, "", parent, trace)
		t0 := time.Now()
		fn()
		took := time.Since(t0)
		rec.end(id)
		phase[name] += ms(took)
		return took
	}
	var st sim.Stats
	switch sch {
	case prophet.Triage:
		took := step("pipeline.triage", func() { st = pipeline.RunTriage(cfg.Sim, triage.Default(), mem.NewSliceSource(recs)) })
		s.passes = append(s.passes, simPass{took, st})
		return st, nil
	case prophet.Triangel:
		took := step("pipeline.triangel", func() { st = pipeline.RunTriangel(cfg.Sim, triangel.Default(), mem.NewSliceSource(recs)) })
		s.passes = append(s.passes, simPass{took, st})
		return st, nil
	}
	p := pipeline.NewProphet(cfg)
	var c *pmu.Counters
	step("pipeline.profile", func() { c = p.Profile(mem.NewSliceSource(recs)) })
	step("pipeline.learn", func() { p.Learn(c) })
	var res analysis.Result
	step("pipeline.analyze", func() { res = p.Analyze() })
	took := step("pipeline.hinted_run", func() { st = p.Run(mem.NewSliceSource(recs)) })
	s.passes = append(s.passes, simPass{took, st})
	meta := map[string]int{"hints": len(res.Hints.PC), "metaWays": res.Hints.MetaWays}
	if res.Hints.DisableTP {
		meta["disableTP"] = 1
	}
	return st, meta
}

// runStats normalizes a run to its baseline the way the Evaluator does.
func runStats(s, base sim.Stats) prophet.RunStats {
	return prophet.RunStats{
		IPC:               s.IPC(),
		Speedup:           stats.Speedup(s.IPC(), base.IPC()),
		DRAMTraffic:       s.DRAMTraffic(),
		NormalizedTraffic: stats.NormalizedTraffic(s.DRAMTraffic(), base.DRAMTraffic()),
		Coverage:          stats.Coverage(base.L2DemandMisses, s.L2DemandMisses),
		Accuracy:          s.TPAccuracy(),
		MetaWays:          s.MetaWays,
		Raw: prophet.RawStats{
			Instructions:    s.Core.Instructions,
			Cycles:          s.Core.Cycles,
			L1Hits:          s.L1.Hits,
			L1Misses:        s.L1.Misses,
			L2DemandMisses:  s.L2DemandMisses,
			DRAMReads:       s.DRAM.Reads,
			DRAMWrites:      s.DRAM.Writes,
			TPIssued:        s.TPIssued,
			TPUseful:        s.TPUseful,
			TPUseless:       s.TPUseless,
			TableInsertions: s.TableStats.Insertions,
			TableLookups:    s.TableStats.Lookups,
			TableHits:       s.TableStats.Hits,
		},
	}
}

func (s *specWarm) layers(ctx context.Context, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{"pipeline.baseline.ms": s.baselineMs}
	for name, vals := range s.phaseMs {
		m[name+".ms"] = median(vals)
	}

	// Trace sources: catalog generation and the ChampSim decoder.
	var genRecs uint64
	for _, n := range specInputs {
		w, _ := workloads.Get(n)
		genRecs += w.Spec.Records
	}
	gen := timeEach(3, func() {
		for _, n := range specInputs {
			w, _ := workloads.Get(n)
			drain(w.Source(0))
		}
	})
	m["workloads.gen.ns_per_rec"] = float64(gen) / float64(genRecs)
	f, ok := ingest.Lookup("champsim")
	if !ok {
		return nil, fmt.Errorf("champsim ingest format not registered")
	}
	var countErr error
	m["ingest.count.ms"] = ms(timeEach(3, func() {
		n, err := ingest.Count(f, s.champ)
		if err == nil && n != champRecords {
			err = fmt.Errorf("ingest.Count = %d accesses, wrote %d", n, champRecords)
		}
		if err != nil {
			countErr = err
		}
	}))
	s.env.led.op(countErr == nil, "champsim count: %v", countErr)
	var decErr error
	dec := timeEach(3, func() {
		r, err := ingest.OpenFile(f, s.champ)
		if err != nil {
			decErr = err
			return
		}
		drain(r)
		r.Close()
	})
	if decErr != nil {
		return nil, decErr
	}
	m["ingest.champsim.ns_per_rec"] = float64(dec) / champRecords

	// Simulator layers, each driven alone with the catalog inputs' streams.
	var catalog [][]mem.Access
	for i, w := range s.workloads() {
		if isCatalog(w.Name) {
			catalog = append(catalog, s.recs[i])
		}
	}
	lay := probeSimLayers(catalog)
	m["cpu.step_ns"] = lay.cpuStep
	m["cache.l1.access_ns"] = lay.l1
	m["cache.l2.access_ns"] = lay.l2
	m["cache.l3.access_ns"] = lay.l3
	m["dram.read_ns"] = lay.dramRead
	m["temporal.insert_ns"] = lay.insert
	m["temporal.lookup_ns"] = lay.lookup

	// Shares: each layer's ns/op times the op counts of every traced pass
	// that reports stats, over those passes' host time. An estimate: the
	// probes run each layer alone, with hot host caches.
	var cpuNs, cacheNs, dramNs, tempNs, hostNs float64
	for _, p := range s.passes {
		st := p.st
		cpuNs += lay.cpuStep * float64(st.Core.MemRecords)
		cacheNs += lay.l1*float64(st.L1.Hits+st.L1.Misses) +
			lay.l2*float64(st.L2.Hits+st.L2.Misses) +
			lay.l3*float64(st.L3.Hits+st.L3.Misses)
		dramNs += lay.dramRead * float64(st.DRAM.Reads+st.DRAM.Writes)
		tempNs += lay.lookup*float64(st.TableStats.Lookups) + lay.insert*float64(st.TableStats.Insertions)
		hostNs += float64(p.took)
	}
	m["cpu.share"] = cpuNs / hostNs
	m["cache.share"] = cacheNs / hostNs
	m["dram.share"] = dramNs / hostNs
	m["temporal.share"] = tempNs / hostNs

	// Exact simulated counts over the catalog cells of the last sweep.
	var l1h, l1m, l2dm, dr, dw, tl, th, ti, pi, pu, hints, ways float64
	for _, c := range s.cells {
		if !isCatalog(c.input) {
			continue
		}
		r := c.st.Raw
		l1h += float64(r.L1Hits)
		l1m += float64(r.L1Misses)
		l2dm += float64(r.L2DemandMisses)
		dr += float64(r.DRAMReads)
		dw += float64(r.DRAMWrites)
		tl += float64(r.TableLookups)
		th += float64(r.TableHits)
		ti += float64(r.TableInsertions)
		pi += float64(r.TPIssued)
		pu += float64(r.TPUseful)
		hints += float64(c.meta["hints"])
		ways += float64(c.meta["metaWays"])
	}
	m["cache.l1.miss_ratio"] = l1m / (l1h + l1m)
	m["cache.l2.demand_misses"] = l2dm
	m["dram.reads"] = dr
	m["dram.writes"] = dw
	m["temporal.lookups"] = tl
	m["temporal.hit_ratio"] = th / tl
	m["temporal.insertions"] = ti
	m["prefetch.issued"] = pi
	m["prefetch.accuracy"] = pu / pi
	m["core.hints"] = hints
	m["core.meta_ways"] = ways
	return m, nil
}

func drain(src mem.Source) {
	for {
		if _, ok := src.Next(); !ok {
			return
		}
	}
}
