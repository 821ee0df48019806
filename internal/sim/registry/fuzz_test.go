package registry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzKinds lists every registered component and core kind, in a fixed
// order so a fuzz input's kind index is stable across runs.
func fuzzKinds() []string { return append(Catalog(), Cores()...) }

// FuzzDecodeOptions feeds arbitrary option bytes to every registered
// prefetcher, policy and core kind. Decoding must never panic, and the
// canonical encoding of accepted options must be a fixed point: decoding it
// again yields the same bytes, so re-canonicalizing a stored spec can never
// move its cache key.
func FuzzDecodeOptions(f *testing.F) {
	kinds := fuzzKinds()
	for i := range kinds {
		for _, raw := range []string{``, `null`, `{}`, `{"streams":32}`, `{"bits":-8}`,
			`{"compare_bits":8,"attribute_recursion":true}`, `{"predictor":"tage"}`,
			`{"thresholds":{}}`, `{"entries":1024} {}`} {
			f.Add(uint8(i), []byte(raw))
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, raw []byte) {
		kind := kinds[int(k)%len(kinds)]
		canonical := CanonicalOptions
		if _, ok := LookupCore(kind); ok {
			canonical = CanonicalCoreOptions
		}
		c1, err := canonical(kind, raw)
		if err != nil {
			return
		}
		c2, err := canonical(kind, c1)
		if err != nil {
			t.Fatalf("%s: canonical options %s do not decode: %v", kind, c1, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonical options not idempotent:\n%s\nvs\n%s", kind, c1, c2)
		}
		if !json.Valid(c1) {
			t.Fatalf("%s: canonical options are not JSON: %s", kind, c1)
		}
	})
}
