package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"prophet/internal/mem"
	"prophet/internal/workloads"
)

// writeChampSim writes records accesses of a catalog pattern mix, re-seeded
// from seed, as ChampSim 64-byte input_instr records: each access's Gap
// becomes that many non-memory instructions, then one instruction carries
// the load (source_memory[0]) or store (destination_memory[0]).
func writeChampSim(path string, seed uint64, records uint64) error {
	spec := workloads.Omnetpp().Spec
	spec.Name = "champsim-omnetpp-mix"
	spec.Seed = seed*0x9E3779B97F4A7C15 + 1
	gen := workloads.NewGenerator(spec, records)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec [64]byte
	var n uint64
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if a.Addr == 0 {
			// ChampSim reads address 0 as "no operand"; the generator
			// never emits it, and the access count check would catch it.
			continue
		}
		clear(rec[:])
		binary.LittleEndian.PutUint64(rec[0:], uint64(a.PC)-4)
		for g := uint16(0); g < a.Gap; g++ {
			bw.Write(rec[:])
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(a.PC))
		if a.Kind == mem.Store {
			binary.LittleEndian.PutUint64(rec[16:], uint64(a.Addr))
		} else {
			binary.LittleEndian.PutUint64(rec[32:], uint64(a.Addr))
		}
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
		n++
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n != records {
		return fmt.Errorf("champsim writer: %d of %d accesses written", n, records)
	}
	return nil
}
