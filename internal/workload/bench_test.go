package workload

import "testing"

// BenchmarkBuild times the functional builds set-up performs for the
// paper's pointer-intensive sweep: each of the 15 pointer-intensive proxies
// at a reference input of scale 0.15 and at its train input (Train's seed
// at Train's fraction of that scale). Builds call
// Generator.Build directly, bypassing the BuildShared cache, so every
// iteration pays for trace emission and the memory image; run with
// -benchmem to see the bytes each full set of builds allocates.
func BenchmarkBuild(b *testing.B) {
	ref := Params{Scale: 0.15, Seed: 1}
	train := Params{Scale: ref.Scale * Train().Scale, Seed: Train().Seed}
	inputs := []Params{ref, train}
	var gens []Generator
	for _, n := range PointerIntensiveNames() {
		g, err := Get(n)
		if err != nil {
			b.Fatal(err)
		}
		gens = append(gens, g)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range gens {
			for _, p := range inputs {
				g.Build(p)
			}
		}
	}
}
