package server

import (
	"bytes"
	"testing"
)

// FuzzSweepRequest drives the submit path's decode and validation with
// arbitrary bodies. It must return a request or an error, never panic, and
// an accepted request must be runnable as-is: a positive scale, a seed, and
// a name on every spec. Nothing is submitted.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig1","scale":0.05}`,
		`{"experiment":"nosuch"}`,
		`{"benchmarks":["mst","health"],"configs":["none","stream"],"scale":0.05,"seed":5}`,
		`{"benchmarks":["mst"],"configs":["ecdp+throttle"]}`,
		`{"benchmarks":["mst"],"specs":[{"components":[{"kind":"stream"},{"kind":"cdp"},{"kind":"throttle"}]}]}`,
		`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"},{"kind":"pab"}]}]}`,
		`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream","options":{"streems":4}}]}]}`,
		`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"}],"core":{"kind":"ooo","options":{"predictor":"gshare"}}}]}`,
		`{"benchmarks":["mst"],"setups":[{"Name":"x","Stream":true}]}`,
		`{"benchmarks":["mst"],"configs":["stream"],"scale":-1}`,
	} {
		f.Add([]byte(body))
	}
	srv, err := New(Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := srv.decodeRequest(bytes.NewReader(body))
		srv.mu.Lock()
		submitted := len(srv.sweeps)
		srv.mu.Unlock()
		if submitted != 0 {
			t.Fatalf("decoding a request submitted %d sweeps", submitted)
		}
		if err != nil {
			return
		}
		if !(req.Scale > 0) || req.Seed == 0 {
			t.Fatalf("accepted request has scale %v seed %d", req.Scale, req.Seed)
		}
		for i, sp := range req.Specs {
			if sp.Name == "" {
				t.Fatalf("accepted spec %d has no name", i)
			}
		}
	})
}
