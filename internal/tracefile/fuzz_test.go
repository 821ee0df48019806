package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// forgedPages returns a capture with no ops and n one-byte page records on
// ascending page numbers 0..n-1, under an unverified digest. Each 3- to
// 4-byte record names a 64 KiB page.
func forgedPages(n int) []byte {
	b := forgedHeader(0)
	binary.LittleEndian.PutUint32(b[20:24], uint32(n))
	for pn := 0; pn < n; pn++ {
		b = binary.AppendUvarint(b, uint64(pn))
		b = append(b, 1, 0xa5)
	}
	return b
}

// TestLoadForgedPagesBounded is the regression test for page-record
// amplification: a forged capture of many tiny page records must be
// refused, and the refusal may allocate only in proportion to the capture,
// not a 64 KiB page per record (which here would be 256 MiB).
func TestLoadForgedPagesBounded(t *testing.T) {
	raw := forgedPages(4096)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := tracefile.Load(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged page records loaded without error")
	}
	if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("forged page records rejected for the wrong reason: %v", err)
	}
	const budget = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("rejecting a %d-byte capture allocated %d bytes, budget %d", len(raw), got, budget)
	}
}

// TestLoadRejectsBadPageNumbers covers the page-number checks, each of which
// fails before the digest is even consulted: numbers beyond 0xFFFF
// (including 64-bit values that truncate to a valid one), duplicates, and
// descending records.
func TestLoadRejectsBadPageNumbers(t *testing.T) {
	for _, c := range []struct {
		name string
		pns  []uint64
	}{
		{"beyond 0xFFFF", []uint64{0x10000}},
		{"truncates to page 1", []uint64{1<<32 + 1}},
		{"duplicate", []uint64{3, 3}},
		{"descending", []uint64{5, 4}},
	} {
		name, pns := c.name, c.pns
		b := forgedHeader(0)
		binary.LittleEndian.PutUint32(b[20:24], uint32(len(pns)))
		for _, pn := range pns {
			b = binary.AppendUvarint(b, pn)
			b = append(b, 1, 0xa5)
		}
		_, _, err := tracefile.Load(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "page number") {
			t.Errorf("%s: err = %v, want a page-number error", name, err)
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
	f.Add(forgedPages(64))
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
