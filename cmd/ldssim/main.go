// Command ldssim runs one benchmark (or a comma-separated multi-core mix)
// under a chosen prefetching configuration and prints the key metrics.
//
// Usage:
//
//	ldssim -bench mst -config ecdp+throttle
//	ldssim -bench health -config stream -scale 0.5
//	ldssim -bench xalancbmk,astar -config ecdp+throttle   # dual-core
//	ldssim -bench mst -core ooo                           # speculative core
//	ldssim -bench mst -core ooo -core-opts '{"predictor":"tage"}'
//	ldssim -bench mst -spec spec.json                     # declarative spec
//	ldssim -bench mst -spec '{"name":"x","components":[{"kind":"stream"}]}'
//	ldssim -bench mst -trace /tmp/t                       # + JSONL telemetry
//	ldssim -bench mst -cache results/cache                # cached re-runs
//	ldssim -replay run.ldstrc -config cdp+throttle        # replay a capture
//	ldssim -list
//	ldssim -list-configs
//
// Configurations: none, stream, cdp, cdp+throttle, ecdp, ecdp+throttle,
// markov, ghb, dbp, ideal — or an arbitrary composition via -spec, which
// takes a sim.Spec JSON document (inline or a file path) listing registered
// component kinds with options. -list-configs prints the named
// configurations, the spec name each resolves to (the name reports and
// manifests carry), and the component catalog.
//
// -cache <dir> routes the run through the job orchestrator's
// content-addressed result store: an identical re-run (same benchmark,
// configuration, scale, and seed) is served from the cache without
// simulating, and the store is shared with the experiments CLI and
// ldsserve. Traced runs bypass the cache (see ORCHESTRATION.md).
//
// -trace <dir> enables interval-level telemetry and persists the run's
// interval-series and throttle-event JSONL files (schemas: OBSERVABILITY.md)
// plus a reproducibility manifest; -out <dir> persists the printed summary
// and a manifest.
//
// -core selects the core timing model: interval (the default dependence-graph
// model; byte-identical to pre-seam reports) or ooo (speculative out-of-order
// with branch prediction and squashed wrong-path memory traffic). -core-opts
// passes the model's typed options as JSON; -list-configs names them.
//
// -replay <file> runs a trace capture (ldstrace capture, format:
// TRACEFORMAT.md) instead of generating a workload; the capture's
// digest is verified on load and recorded in persisted manifests, and the
// report is byte-identical to running the captured generator directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/sim/registry"
	"ldsprefetch/internal/tracefile"
	"ldsprefetch/internal/workload"
)

func fatal(v ...interface{}) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(2)
}

func hints(bench string, p workload.Params) *core.HintTable {
	tr, err := workload.BuildShared(bench, p)
	if err != nil {
		fatal(err)
	}
	prof := profiling.Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())
	return prof.Hints(0)
}

func main() {
	bench := flag.String("bench", "mst", "benchmark name")
	config := flag.String("config", "ecdp+throttle", "prefetching configuration")
	specArg := flag.String("spec", "", "sim.Spec JSON, inline or a file path (overrides -config)")
	scale := flag.Float64("scale", 1.0, "input scale")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list benchmarks and exit")
	listConfigs := flag.Bool("list-configs", false, "list named configurations and registered components, then exit")
	coreKind := flag.String("core", "", "core timing model: interval (default) or ooo; see -list-configs")
	coreOpts := flag.String("core-opts", "", "core model options as JSON (e.g. '{\"predictor\":\"tage\"}'); requires -core")
	replay := flag.String("replay", "", "trace capture file to replay as the benchmark (overrides -bench)")
	traceDir := flag.String("trace", "", "directory for interval/event JSONL traces (+ manifest)")
	outDir := flag.String("out", "", "directory to persist the run summary (+ manifest)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory")
	flag.Parse()

	if *list {
		printWorkloads(os.Stdout)
		return
	}
	if *listConfigs {
		printConfigs(os.Stdout)
		return
	}
	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fatal(fmt.Sprintf("ldssim: -scale must be a positive number, got %v (run 'ldssim -h' for usage)", *scale))
	}

	p := workload.Params{Scale: *scale, Seed: *seed}
	train := workload.Train()
	train.Scale *= *scale
	benches := strings.Split(*bench, ",")

	// A replayed capture substitutes for -bench: the capture registers as a
	// content-addressed workload and its provenance lands in the manifest.
	var traceRef *exp.TraceFileRef
	if *replay != "" {
		name, hdr, err := loadReplay(*replay)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		benches = []string{name}
		traceRef = &exp.TraceFileRef{
			Path:          *replay,
			Generator:     hdr.Meta.Generator,
			Digest:        tracefile.HexDigest(hdr.Digest),
			FormatVersion: hdr.FormatVersion,
		}
	}

	var setup sim.Spec
	if *specArg != "" {
		sp, err := loadSpec(*specArg)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		if err := sp.Validate(); err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		setup = sp
	} else {
		// Hint tables are only profiled when the configuration consumes them;
		// a mix merges the per-benchmark tables (PCs are disjoint per
		// generator).
		var h *core.HintTable
		if sim.NamedNeedsHints(*config) {
			h = core.NewHintTable()
			for _, b := range benches {
				bh := hints(b, train)
				for _, pc := range bh.PCs() {
					v, _ := bh.Lookup(pc)
					h.Set(pc, v)
				}
			}
		}
		var err error
		setup, err = sim.Named(*config, h)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v (run 'ldssim -h' for usage)", err))
		}
	}
	setup.Trace = *traceDir != ""
	if *coreOpts != "" && *coreKind == "" {
		fatal("ldssim: -core-opts requires -core (run 'ldssim -h' for usage)")
	}
	if *coreKind != "" {
		c := sim.Component{Kind: *coreKind, Options: json.RawMessage(*coreOpts)}
		setup.Core = &c
	}
	if err := setup.Validate(); err != nil {
		fatal(fmt.Sprintf("ldssim: %v (run 'ldssim -h' for usage)", err))
	}

	// Manifests record the named configuration, or the spec name for -spec
	// runs (the spec itself is what reproduces the run, not the label).
	configLabel := *config
	if *specArg != "" {
		configLabel = "spec:" + setup.Name
	}

	var sched *jobs.Scheduler
	{
		cfg := jobs.Config{}
		if *cacheDir != "" {
			store, err := jobs.Open(*cacheDir)
			if err != nil {
				fatal("ldssim: opening cache:", err)
			}
			cfg.Store = store
		}
		sched = jobs.New(cfg)
	}

	// The summary goes to stdout and, with -out, to <out>/run.txt too.
	var sb strings.Builder
	w := io.Writer(os.Stdout)
	if *outDir != "" {
		w = io.MultiWriter(os.Stdout, &sb)
	}

	if len(benches) > 1 {
		mr, err := sched.MultiSpec(benches, p, setup)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "mix              %s\n", *bench)
		fmt.Fprintf(w, "config           %s\n", setup.Name)
		fmt.Fprintf(w, "weighted speedup %.4f\n", mr.WeightedSpeedup)
		fmt.Fprintf(w, "hmean speedup    %.4f\n", mr.HmeanSpeedup)
		fmt.Fprintf(w, "bus transfers    %d (%.2f per kilo-instruction)\n", mr.BusTransfers, mr.BusPKI)
		for i, pc := range mr.PerCore {
			fmt.Fprintf(w, "core %d (%s): IPC %.4f shared, %.4f alone\n",
				i, pc.Benchmark, pc.IPC, mr.AloneIPC[i])
		}
		if *traceDir != "" {
			for i, pc := range mr.PerCore {
				if pc.Trace == nil {
					continue
				}
				base := fmt.Sprintf("core%d-%s", i, exp.TraceBase(pc.Trace))
				if err := exp.WriteTraceAs(*traceDir, base, pc.Trace); err != nil {
					fatal("ldssim: writing traces:", err)
				}
			}
		}
		cacheSummary(*cacheDir, sched)
		persist(*traceDir, *outDir, configLabel, benches, *scale, *seed, traceRef, sb.String())
		return
	}

	r, err := sched.SingleSpec(benches[0], p, setup)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "benchmark      %s\n", r.Benchmark)
	fmt.Fprintf(w, "config         %s\n", setup.Name)
	fmt.Fprintf(w, "instructions   %d\n", r.Retired)
	fmt.Fprintf(w, "cycles         %d\n", r.Cycles)
	fmt.Fprintf(w, "IPC            %.4f\n", r.IPC)
	fmt.Fprintf(w, "BPKI           %.2f\n", r.BPKI)
	fmt.Fprintf(w, "L2 demand miss %d\n", r.DemandMisses)
	if r.Branches > 0 {
		fmt.Fprintf(w, "branches       %d (%d mispredicted)\n", r.Branches, r.Mispredicts)
	}
	if r.Mem.WrongPathAccesses > 0 {
		fmt.Fprintf(w, "wrong-path     %d issued, %d to DRAM\n",
			r.Mem.WrongPathAccesses, r.Mem.WrongPathToDRAM)
	}
	for src := prefetch.SrcStream; src < prefetch.NumSources; src++ {
		if r.Issued[src] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8s issued %d, used %d (accuracy %.3f, coverage %.3f)\n",
			src, r.Issued[src], r.Used[src], r.Accuracy[src], r.Coverage[src])
	}
	if *traceDir != "" && r.Trace != nil {
		if err := exp.WriteTrace(*traceDir, r.Trace); err != nil {
			fatal("ldssim: writing traces:", err)
		}
	}
	cacheSummary(*cacheDir, sched)
	persist(*traceDir, *outDir, configLabel, benches, *scale, *seed, traceRef, sb.String())
}

// loadReplay registers the capture at path as a workload and returns its
// registered name and parsed header.
func loadReplay(path string) (string, tracefile.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", tracefile.Header{}, err
	}
	r, err := tracefile.NewReader(f)
	f.Close()
	if err != nil {
		return "", tracefile.Header{}, err
	}
	name, err := workload.FromTraceFile(path)
	if err != nil {
		return "", tracefile.Header{}, err
	}
	return name, r.Header(), nil
}

// printWorkloads lists the registered workload catalog: the paper's
// benchmarks plus any server-class families and loaded trace captures.
func printWorkloads(w io.Writer) {
	for _, n := range workload.Names() {
		g, _ := workload.Get(n)
		kind := "streaming"
		switch {
		case g.PointerIntensive:
			kind = "pointer-intensive"
		case g.Server:
			kind = "server"
		}
		fmt.Fprintf(w, "%-12s %-18s %s\n", n, kind, g.Description)
	}
}

// loadSpec parses the -spec argument: inline JSON when it looks like a JSON
// document, a file path otherwise.
func loadSpec(arg string) (sim.Spec, error) {
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return sim.Spec{}, fmt.Errorf("reading -spec file: %w", err)
		}
		data = b
	}
	var sp sim.Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sim.Spec{}, fmt.Errorf("parsing -spec: %w", err)
	}
	if sp.Name == "" {
		sp.Name = "spec"
	}
	return sp, nil
}

// printConfigs lists the named configurations, with the spec name each
// resolves to, and the component catalog the registry knows about, so -spec
// authors can discover kinds without reading source.
func printConfigs(w io.Writer) {
	fmt.Fprintln(w, "named configurations (-config):")
	for _, n := range sim.NamedConfigs() {
		sp, _ := sim.Named(n, nil) // n comes from NamedConfigs, so Named cannot fail
		suffix := ""
		if sim.NamedNeedsHints(n) {
			suffix = ", profiles hints"
		}
		fmt.Fprintf(w, "  %-14s (spec %s%s)\n", n, sp.Name, suffix)
	}
	fmt.Fprintln(w, "\nprefetcher components (-spec kinds):")
	for _, kind := range registry.Prefetchers() {
		in, _ := registry.Lookup(kind)
		fmt.Fprintf(w, "  %-10s v%-2d throttleable=%-5v switchable=%-5v consumes_hints=%v\n",
			in.Kind, in.Version, in.Throttleable, in.Switchable, in.ConsumesHints)
	}
	fmt.Fprintln(w, "\npolicy components (-spec kinds):")
	for _, kind := range registry.Policies() {
		in, _ := registry.Lookup(kind)
		fmt.Fprintf(w, "  %-10s v%-2d claims_throttle=%-5v min_switchable=%d\n",
			in.Kind, in.Version, in.ClaimsThrottle, in.MinSwitchable)
	}
	fmt.Fprintln(w, "\ncore models (-core, or \"core\" in -spec):")
	for _, kind := range registry.Cores() {
		cm, _ := registry.LookupCore(kind)
		def := ""
		if kind == registry.DefaultCoreKind {
			def = " (default)"
		}
		opts := strings.Join(optionFields(cm.NewOptions()), ", ")
		if opts == "" {
			opts = "none"
		}
		fmt.Fprintf(w, "  %-10s v%-2d options: %s%s\n", kind, cm.Version, opts, def)
	}
	fmt.Fprintln(w, "\nworkloads (-bench):")
	printWorkloads(w)
}

// optionFields lists the JSON option names a registry options struct
// accepts, so -list-configs documents each core model's typed knobs.
func optionFields(opts any) []string {
	t := reflect.TypeOf(opts)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return nil
	}
	var names []string
	for i := 0; i < t.NumField(); i++ {
		tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if tag == "" {
			tag = t.Field(i).Name
		}
		if tag != "-" {
			names = append(names, tag)
		}
	}
	return names
}

// cacheSummary reports cache provenance on stderr when a cache is in use.
func cacheSummary(cacheDir string, sched *jobs.Scheduler) {
	if cacheDir == "" {
		return
	}
	snap := sched.Metrics().Snapshot()
	fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d computed=%d uncached=%d\n",
		snap.CacheHits, snap.CacheMisses, snap.Computed, snap.Uncached)
}

// persist writes the reproducibility manifest into each requested directory
// and the captured summary into <out>/run.txt.
func persist(traceDir, outDir, config string, benches []string, scale float64, seed int64, traceRef *exp.TraceFileRef, summary string) {
	m := exp.NewManifest("ldssim/"+config, scale, seed, 0)
	m.Benchmarks = benches
	m.TraceFile = traceRef
	for _, dir := range []string{traceDir, outDir} {
		if dir == "" {
			continue
		}
		if err := m.Write(dir); err != nil {
			fatal("ldssim: writing manifest:", err)
		}
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "run.txt"), []byte(summary), 0o644); err != nil {
			fatal("ldssim: writing summary:", err)
		}
	}
}
