package sim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"ldsprefetch/internal/core"
)

// FuzzSpecJSON checks the Spec wire format against its cache-key encoding:
// any JSON that decodes to a valid Spec must canonicalize, and re-encoding
// that Spec and decoding it again must reproduce the canonical bytes
// exactly, so a spec that travels (HTTP sweeps, -spec files, distributed
// workers) keys the same cache entries as the original.
func FuzzSpecJSON(f *testing.F) {
	h := core.NewHintTable()
	h.Set(0x40, core.HintVec{Pos: 3, Neg: 4})
	for _, name := range NamedConfigs() {
		sp, err := Named(name, h)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 16; i++ {
		b, err := json.Marshal(randomSpec(rng, i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"x","components":[{"kind":"stream","options":{ "streams": 32 }}]}`))
	f.Add([]byte(`{"name":"x","components":[{"kind":"stream"},{"kind":"cdp"},{"kind":"throttle","options":null}],"core":{"kind":"ooo","options":{"predictor":"tage"}},"engine":"parallel"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			return
		}
		c1, err := sp.Canonical()
		if err != nil {
			t.Fatalf("valid spec does not canonicalize: %v", err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\njson: %s", err, b)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatalf("re-decoded spec does not canonicalize: %v\njson: %s", err, b)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding changed across JSON:\n%s\nvs\n%s", c1, c2)
		}
	})
}
