package main

import (
	"prophet/internal/cache"
	"prophet/internal/cpu"
	"prophet/internal/dram"
	"prophet/internal/mem"
	"prophet/internal/sim"
	"prophet/internal/temporal"
)

// simLayerNs holds the host nanoseconds per operation of each simulator
// layer, driven alone.
type simLayerNs struct {
	cpuStep, l1, l2, l3, dramRead, insert, lookup float64
}

// probeRepeats is how many times each probe runs; the median counts.
const probeRepeats = 3

// probeSimLayers drives each simulator layer directly with the inputs'
// streams: the core with every record over a memory that always hits, L1
// with every record's line, L2 with L1's misses, L3 with L2's misses, DRAM
// with L3's misses, and the metadata table with consecutive L2-miss pairs.
func probeSimLayers(inputs [][]mem.Access) simLayerNs {
	cfg := sim.Default()
	var out simLayerNs

	var records int
	for _, recs := range inputs {
		records += len(recs)
	}
	out.cpuStep = nsPerOp(records, func() {
		for _, recs := range inputs {
			c := cpu.New(cfg.Core, hitMemory{latency: uint64(cfg.L1.HitLatency)})
			for _, a := range recs {
				c.Step(a)
			}
			c.Finish()
		}
	})

	l1Lines := make([][]access, len(inputs))
	for i, recs := range inputs {
		l1Lines[i] = make([]access, len(recs))
		for j, a := range recs {
			l1Lines[i][j] = access{line: a.Line(), write: a.Kind == mem.Store}
		}
	}
	var l2Lines, l3Lines, dramLines [][]access
	out.l1, l2Lines = probeCache(cfg.L1, l1Lines)
	out.l2, l3Lines = probeCache(cfg.L2, l2Lines)
	out.l3, dramLines = probeCache(cfg.L3, l3Lines)

	var reads int
	for _, ls := range dramLines {
		reads += len(ls)
	}
	out.dramRead = nsPerOp(reads, func() {
		for _, ls := range dramLines {
			d := dram.New(cfg.DRAM)
			var now uint64
			for _, a := range ls {
				now += 8
				d.Read(a.line, now)
			}
		}
	})

	// Metadata-table pairs: each L2 miss correlates with the next one.
	idx := make([][]uint32, len(l3Lines))
	var pairs int
	for i, ls := range l3Lines {
		comp := temporal.NewCompressor()
		idx[i] = make([]uint32, len(ls))
		for j, a := range ls {
			idx[i][j] = comp.Index(a.line)
		}
		if len(ls) > 1 {
			pairs += len(ls) - 1
		}
	}
	tcfg := temporal.DefaultTableConfig()
	var tables []*temporal.Table
	out.insert = nsPerOp(pairs, func() {
		for _, t := range tables {
			t.Release()
		}
		tables = tables[:0]
		for _, ix := range idx {
			t := temporal.NewTable(tcfg, tcfg.MaxWays)
			for j := 1; j < len(ix); j++ {
				t.Insert(ix[j-1], ix[j], 0)
			}
			tables = append(tables, t)
		}
	})
	out.lookup = nsPerOp(pairs, func() {
		for i, ix := range idx {
			t := tables[i]
			for j := 0; j+1 < len(ix); j++ {
				t.Lookup(ix[j])
			}
		}
	})
	for _, t := range tables {
		t.Release()
	}
	return out
}

type access struct {
	line  mem.Line
	write bool
}

// probeCache times demand accesses (with fills on misses) on a fresh cache
// per input and returns the ns per access and each input's miss stream.
func probeCache(cc cache.Config, inputs [][]access) (float64, [][]access) {
	misses := make([][]access, len(inputs))
	var n int
	for i, ls := range inputs {
		n += len(ls)
		misses[i] = runCache(cc, ls, true)
	}
	return nsPerOp(n, func() {
		for _, ls := range inputs {
			runCache(cc, ls, false)
		}
	}), misses
}

func runCache(cc cache.Config, ls []access, collect bool) []access {
	c := cache.New(cc)
	var miss []access
	var now uint64
	for _, a := range ls {
		now++
		res, slot := c.AccessFill(a.line, now, a.write)
		if !res.Hit {
			c.Fill(slot, a.line, now+100, a.write, false, 0)
			if collect {
				miss = append(miss, a)
			}
		}
	}
	return miss
}

// nsPerOp runs fn probeRepeats times and returns the median ns per op.
func nsPerOp(ops int, fn func()) float64 {
	if ops == 0 {
		return 0
	}
	return float64(timeEach(probeRepeats, fn)) / float64(ops)
}

// hitMemory is a memory that answers every access as an L1 hit, so the core
// model's own cost is all that is timed.
type hitMemory struct{ latency uint64 }

func (m hitMemory) Access(_ mem.Access, now uint64) (uint64, bool) { return now + m.latency, false }

var _ cpu.Memory = hitMemory{}
