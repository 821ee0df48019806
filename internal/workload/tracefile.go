package workload

import (
	"fmt"
	"os"
	"strings"

	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/tracefile"
)

// TraceBenchName is the registry name of a replayed capture: "trace:" plus
// the first 12 hex digits of the capture digest. Content-addressed naming
// keeps replay runs honest in every cache key and report label that embeds
// the benchmark name: two runs labelled the same replayed exactly the same
// capture.
func TraceBenchName(digest [32]byte) string {
	return "trace:" + tracefile.HexDigest(digest)[:12]
}

// FromTraceFile loads the capture at path (verifying its digest), registers
// it as a server-class workload, and returns the registered benchmark name.
// The capture's Build ignores Params: the ops are fixed; only the memory
// image is cloned per build so timing replays cannot corrupt the canonical
// image. The image is frozen here, so builds of one capture at different
// Params may clone it concurrently. Loading the same capture twice is
// idempotent.
func FromTraceFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("workload: opening trace file: %w", err)
	}
	defer f.Close()
	tr, hdr, err := tracefile.Load(f)
	if err != nil {
		return "", err
	}
	tr.Mem.Freeze()
	name := TraceBenchName(hdr.Digest)
	err = Register(Generator{
		Name:   name,
		Server: true,
		Description: fmt.Sprintf("replay of capture %s (generator %s, scale %g, seed %d)",
			tracefile.HexDigest(hdr.Digest)[:12], hdr.Meta.Generator, hdr.Meta.Scale, hdr.Meta.Seed),
		Build: func(Params) *trace.Trace { return tr.Clone() },
	})
	if err != nil && !strings.Contains(err.Error(), "duplicate") {
		return "", err
	}
	return name, nil
}
