// Command perfbench runs one benchmark workload once, in a fresh process so
// that the workload build cache starts cold, and prints one JSON report on
// standard output. run.py drives it; see README.md for the metrics.
//
//	perfbench -workload lds_sweep -seed 1          # untraced: end-to-end metrics
//	perfbench -workload lds_sweep -seed 1 -trace   # plus a traced pass: per-layer metrics
//
// The process exits 0 even when an output check fails; failures are listed
// in the report's "errors" field.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a report was measured on; only reports
// from the same host are comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report is the process's output.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Host      hostInfo `json:"host"`
	Digest    string   `json:"digest"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors"`

	SetupS    float64 `json:"setup_s"`
	SimS      float64 `json:"sim_s"`
	WallS     float64 `json:"wall_s"`
	MAccess   float64 `json:"maccess"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	IPCRatio  float64 `json:"ipc_ratio"`
	BPKIRatio float64 `json:"bpki_ratio"`

	// Layers and Counts hold the per-layer metrics of a traced run: host
	// timings, and counts that a fixed seed fixes.
	Layers map[string]float64 `json:"layers,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func main() {
	name := flag.String("workload", "", "workload to run (lds_sweep, stream_sweep, mix4_shared)")
	seed := flag.Int64("seed", 1, "input seed")
	traced := flag.Bool("trace", false, "add a traced pass and report per-layer metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	rep := report{Workload: w.name, Seed: *seed, Host: host(), Errors: []string{}}
	b := newBench(w, *seed, runtime.NumCPU())
	start := time.Now()
	su := b.setup()
	rep.SetupS = time.Since(start).Seconds()
	simStart := time.Now()
	sw := b.simulate(su)
	rep.SimS = time.Since(simStart).Seconds()
	rep.WallS = time.Since(start).Seconds()
	rep.PeakRSSMB = peakRSSMB()

	m := b.sched.Metrics().Snapshot()
	rep.Attempted, rep.Failed = m.Submitted, m.Failed
	for _, err := range append(su.errs, sw.errs...) {
		rep.Errors = append(rep.Errors, err.Error())
	}
	if len(rep.Errors) == 0 {
		rep.Errors = append(rep.Errors, checkOutcomes(b.tasks, sw.outs, su.memops)...)
	}
	if len(rep.Errors) == 0 {
		rep.Digest = digest(sw.outs)
		rep.IPCRatio, rep.BPKIRatio = w.gains(b.tasks, sw.outs)
		rep.MAccess = float64(sw.accesses) / 1e6
	}
	if *traced && len(rep.Errors) == 0 {
		rep.Layers, rep.Counts, err = b.traceLayers(su, sw, rep.Attempted, rep.Failed)
		if err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
