// Command ldsbench runs the repository's benchmark set through
// testing.Benchmark and emits a versioned JSON artifact (BENCH_PR10.json by
// default) recording ns/op, B/op, allocs/op, and simulated-accesses/sec per
// benchmark, plus the metadata needed to compare runs over time (schema
// version, workload scale, Go version). CI runs the short set on every push
// and uploads the artifact; see BENCHMARKS.md for the schema and the
// comparison methodology.
//
// Usage:
//
//	ldsbench                      # short set -> BENCH_PR10.json
//	ldsbench -set full -out -     # every paper artifact, JSON to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	lds "ldsprefetch"
	"ldsprefetch/internal/sim"
)

// schemaVersion identifies the artifact layout. Bump on breaking changes.
// Version 2 dropped the embedded baseline_pr* trajectory rows; earlier
// trees' numbers live in the committed BENCH_PR*.json artifacts.
const schemaVersion = "ldsbench/2"

// benchmark is one measurable unit: either a paper artifact (an experiment
// id) or a micro-benchmark of the simulator.
type benchmark struct {
	name  string
	short bool // member of the CI short set
	run   func(b *testing.B, in lds.Input)
	// accesses returns the simulated demand accesses of one iteration, for
	// the simulated-accesses/sec rate (0 = not applicable).
	accesses func(in lds.Input) int64
}

// result is one row of the JSON artifact.
type result struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// SimAccessesPerSec is simulated demand accesses divided by wall time,
	// the simulator's end-to-end throughput metric (micro-benchmarks only).
	SimAccessesPerSec float64 `json:"simulated_accesses_per_sec,omitempty"`
}

// artifact is the full JSON document.
type artifact struct {
	SchemaVersion string   `json:"schema_version"`
	Set           string   `json:"set"`
	Scale         float64  `json:"scale"`
	Seed          int64    `json:"seed"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	Benchmarks    []result `json:"benchmarks"`
}

func experimentBench(id string) func(b *testing.B, in lds.Input) {
	return func(b *testing.B, in lds.Input) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reports, err := lds.Experiment(id, in)
			if err != nil {
				b.Fatal(err)
			}
			if len(reports) == 0 {
				b.Fatalf("%s produced no reports", id)
			}
		}
	}
}

func simBench(bench string, spec func() lds.Spec) benchmark {
	run := func(in lds.Input) (lds.Result, error) {
		return lds.Run(bench, in, spec())
	}
	return benchmark{
		short: true,
		run: func(b *testing.B, in lds.Input) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(in); err != nil {
					b.Fatal(err)
				}
			}
		},
		accesses: func(in lds.Input) int64 {
			res, err := run(in)
			if err != nil {
				return 0
			}
			return res.Mem.Accesses
		},
	}
}

// mixBench measures the shared run of a 4-core mix end to end through the
// epoch-barrier engine. The row keeps the name mix4_serial so the committed
// BENCH_PR*.json trajectories line up.
func mixBench() benchmark {
	benches := []string{"mcf", "xalancbmk", "omnetpp", "health"}
	run := func(in lds.Input) (sim.MultiResult, error) {
		return sim.RunSharedSpec(benches, in, sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle"))
	}
	return benchmark{
		name:  "mix4_serial",
		short: true,
		run: func(b *testing.B, in lds.Input) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(in); err != nil {
					b.Fatal(err)
				}
			}
		},
		accesses: func(in lds.Input) int64 {
			res, err := run(in)
			if err != nil {
				return 0
			}
			var acc int64
			for _, r := range res.PerCore {
				acc += r.Mem.Accesses
			}
			return acc
		},
	}
}

// coreBench measures one single-core run of the stream+cdp+throttle
// configuration on mst under the named core timing model.
func coreBench(core string) benchmark {
	bm := simBench("mst", func() lds.Spec {
		return sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle").WithCore(core, nil)
	})
	bm.name = "sim_hybrid_" + core
	return bm
}

func benchmarks() []benchmark {
	var out []benchmark

	base := simBench("mst", lds.Baseline)
	base.name = "sim_baseline"
	out = append(out, base)

	cdp := simBench("mst", lds.OriginalCDP)
	cdp.name = "sim_cdp"
	out = append(out, cdp)

	prop := simBench("mst", func() lds.Spec {
		train := lds.Input{Scale: lds.BenchScale * lds.TrainInput().Scale, Seed: 1009}
		return lds.Proposal(lds.ProfileHints("mst", train))
	})
	prop.name = "sim_proposal"
	out = append(out, prop)

	out = append(out, benchmark{
		name:  "profile_pass",
		short: true,
		run: func(b *testing.B, in lds.Input) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if lds.ProfileHints("mst", lds.Input{Scale: in.Scale, Seed: 1009}).Len() == 0 {
					b.Fatal("no hints")
				}
			}
		},
	})

	out = append(out, mixBench())

	// Core-model pair: the same hybrid configuration under the default
	// interval core and the speculative ooo core. The ns/op ratio prices
	// the out-of-order model (branch prediction + wrong-path traffic);
	// the interval row must track sim_cdp's trajectory.
	out = append(out, coreBench("interval"), coreBench("ooo"))

	// Paper artifacts. fig1 is in the short set: it is the headline artifact
	// and the alloc-trajectory acceptance gate.
	shortExps := map[string]bool{"fig1": true}
	for _, id := range []string{"fig1", "fig2", "fig4", "fig7", "fig8", "fig9",
		"fig10", "table7", "fig11", "fig12", "fig13", "fig14", "fig15",
		"sec23", "sec616", "sec67", "sec72", "sec74", "ablate"} {
		out = append(out, benchmark{name: id, short: shortExps[id], run: experimentBench(id)})
	}
	return out
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output path (- for stdout)")
	set := flag.String("set", "short", "benchmark set: short (CI) or full (every artifact)")
	scale := flag.Float64("scale", lds.BenchScale, "workload input scale")
	seed := flag.Int64("seed", 1, "workload input seed")
	flag.Parse()

	if *set != "short" && *set != "full" {
		fmt.Fprintln(os.Stderr, "ldsbench: -set must be short or full")
		os.Exit(2)
	}
	in := lds.Input{Scale: *scale, Seed: *seed}

	doc := artifact{
		SchemaVersion: schemaVersion,
		Set:           *set,
		Scale:         *scale,
		Seed:          *seed,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
	for _, bm := range benchmarks() {
		if *set == "short" && !bm.short {
			continue
		}
		fmt.Fprintf(os.Stderr, "ldsbench: running %s\n", bm.name)
		r := testing.Benchmark(func(b *testing.B) { bm.run(b, in) })
		row := result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if bm.accesses != nil && r.NsPerOp() > 0 {
			if acc := bm.accesses(in); acc > 0 {
				row.SimAccessesPerSec = float64(acc) * 1e9 / float64(r.NsPerOp())
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "ldsbench: %-14s %12d ns/op %12d B/op %9d allocs/op\n",
			bm.name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldsbench:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ldsbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ldsbench: wrote %s\n", *out)
}
