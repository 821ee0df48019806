package main

import (
	"time"

	"ldsprefetch/internal/cache"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/workload"
)

// replay times the layers the simulator reaches only through concrete
// calls, by feeding each one the inputs the traced pass recorded: memsys
// and the caches get the demand accesses, the memory image gets the loads
// and the filled blocks, and DRAM gets the request log. Each metric is host
// nanoseconds per call, over every recorded input of the workload.
func replay(b *bench, recs []*recorder) map[string]float64 {
	var (
		msNs, cacheNs, r32Ns, blkNs, dramNs int64
		msN, cacheN, r32N, blkN, dramN      int64
		sink                                uint32
	)
	mcfg := memsys.DefaultConfig()
	buf := make([]byte, mcfg.BlockSize)
	for _, rec := range recs {
		tr, err := workload.BuildShared(rec.bench, b.ref)
		if err != nil {
			continue // the traced pass built this trace already
		}
		mm := tr.Mem

		cfg := mcfg
		cfg.Cores = rec.cores
		ms := memsys.New(cfg, mm, dram.NewController(dram.DefaultConfig(rec.cores)))
		start := time.Now()
		for _, a := range rec.accesses {
			ms.Access(a.addr, a.pc, a.load, a.lds, a.now)
		}
		msNs += int64(time.Since(start))
		msN += int64(len(rec.accesses))

		l1 := cache.New("L1D", mcfg.L1Size, mcfg.L1Ways, mcfg.BlockSize)
		l2 := cache.New("L2", mcfg.L2Size, mcfg.L2Ways, mcfg.BlockSize)
		start = time.Now()
		for _, a := range rec.accesses {
			cacheN++
			if l1.Lookup(a.addr, true) != nil {
				continue
			}
			l1.Insert(a.addr)
			cacheN++
			if l2.Lookup(a.addr, true) == nil {
				l2.Insert(a.addr)
			}
		}
		cacheNs += int64(time.Since(start))

		start = time.Now()
		for _, a := range rec.accesses {
			if a.load {
				sink ^= mm.Read32(a.addr)
				r32N++
			}
		}
		r32Ns += int64(time.Since(start))

		start = time.Now()
		for _, blk := range rec.fills {
			mm.ReadBlock(blk, buf)
			sink ^= uint32(buf[0])
		}
		blkNs += int64(time.Since(start))
		blkN += int64(len(rec.fills))

		ctrl := dram.NewController(dram.DefaultConfig(rec.cores))
		start = time.Now()
		for _, r := range rec.dram {
			if r.Writeback {
				ctrl.Writeback(r.Addr, r.At)
			} else {
				ctrl.Access(r.Addr, r.At, r.Demand)
			}
		}
		dramNs += int64(time.Since(start))
		dramN += int64(len(rec.dram))
	}
	replaySink = sink
	return map[string]float64{
		"memsys.access_ns": ratio(msNs, msN),
		"cache.access_ns":  ratio(cacheNs, cacheN),
		"mem.read32_ns":    ratio(r32Ns, r32N),
		"mem.readblock_ns": ratio(blkNs, blkN),
		"dram.access_ns":   ratio(dramNs, dramN),
	}
}

// replaySink keeps the replayed reads from being optimized away.
var replaySink uint32
