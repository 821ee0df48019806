package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/tracefile"
)

// forgedHeader returns a 62-byte capture: a well-formed version-2 header
// claiming opCount ops and no pages, an unverified digest, "{}" metadata,
// and no body at all.
func forgedHeader(opCount uint64) []byte {
	b := make([]byte, 60, 62)
	copy(b, "LDSTRC01")
	binary.LittleEndian.PutUint32(b[8:12], tracefile.FormatVersion)
	binary.LittleEndian.PutUint64(b[12:20], opCount)
	binary.LittleEndian.PutUint32(b[56:60], 2)
	return append(b, "{}"...)
}

// TestLoadForgedOpCount is the regression test for header-driven
// preallocation: a tiny file whose header claims 2^33 ops must be refused
// with an error, not abort the process trying to reserve the claimed ops.
func TestLoadForgedOpCount(t *testing.T) {
	for _, n := range []uint64{1 << 33, 1<<33 + 1, 1 << 24} {
		if _, _, err := tracefile.Load(bytes.NewReader(forgedHeader(n))); err == nil {
			t.Fatalf("op count %d: forged header loaded without error", n)
		}
	}
}

// tinyCapture returns the bytes of a small valid capture holding every op
// kind and one memory page.
func tinyCapture(f *testing.F) []byte {
	m := mem.New()
	node := mem.HeapBase
	m.Write32(node, node+16)
	b := trace.NewBuilder("tiny", m, 1)
	next, ld := b.Load(0x400, node, trace.NoDep, true)
	b.Load(0x404, next, ld, true)
	b.Store(0x408, node+4, 7, ld)
	b.Branch(0x40c, 0x400, true, ld)
	b.Compute(3)
	path := filepath.Join(f.TempDir(), "tiny.ldstrc")
	file, err := os.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	if _, err := tracefile.Capture(file, b.Trace(), tracefile.Meta{Name: "tiny", Generator: "tiny", Tool: "test"}); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzLoad feeds arbitrary bytes to Load. Load must never panic or abort,
// and every capture it accepts must also pass the streaming Verify.
func FuzzLoad(f *testing.F) {
	valid := tinyCapture(f)
	if _, _, err := tracefile.Load(bytes.NewReader(valid)); err != nil {
		f.Fatalf("seed capture rejected: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(forgedHeader(1 << 33))
	f.Add(forgedHeader(0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, _, err := tracefile.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("Load accepted a structurally invalid trace: %v", err)
		}
		r, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Load accepted what NewReader rejects: %v", err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("Load accepted what Verify rejects: %v", err)
		}
	})
}
