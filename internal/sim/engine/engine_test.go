package engine

import (
	"math/rand"
	"testing"

	"ldsprefetch/internal/dram"
)

// fakeCore issues a scripted request stream through its shadow controller,
// one simulated cycle at a time, honoring the StepUntil contract.
type fakeCore struct {
	sh  *dram.Controller
	evs []dram.Request
	pos int
	now int64
	end int64
}

func (f *fakeCore) Done() bool { return f.now >= f.end }
func (f *fakeCore) Now() int64 { return f.now }

func (f *fakeCore) StepUntil(h int64) int {
	n := 0
	for f.now < h && f.now < f.end {
		for f.pos < len(f.evs) && f.evs[f.pos].At <= f.now {
			e := f.evs[f.pos]
			if e.Writeback {
				f.sh.Writeback(e.Addr, e.At)
			} else {
				f.sh.Access(e.Addr, e.At, e.Demand)
			}
			f.pos++
			n++
		}
		f.now++
	}
	return n
}

func script(seed int64, n int, end int64) []dram.Request {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]dram.Request, 0, n)
	t := int64(0)
	for i := 0; i < n && t < end; i++ {
		t += int64(rng.Intn(50))
		evs = append(evs, dram.Request{
			Addr:   0x1000_0000 + uint32(rng.Intn(128))<<6,
			At:     t,
			Demand: rng.Intn(2) == 0,
		})
	}
	return evs
}

// runMix drives four scripted cores with uneven finishing times through the
// engine and returns the master.
func runMix() *dram.Controller {
	cfg := dram.DefaultConfig(4)
	master := dram.NewController(cfg)
	var cores []Core
	var shadows []*dram.Controller
	for i := 0; i < 4; i++ {
		sh := dram.NewController(cfg)
		sh.StartLog()
		end := int64(20000 * (i + 1)) // staggered completion
		cores = append(cores, &fakeCore{sh: sh, evs: script(int64(i+1), 400, end), end: end})
		shadows = append(shadows, sh)
	}
	Run(cores, shadows, master, Config{EpochCycles: 512})
	return master
}

// TestAllRequestsReachMaster verifies no logged request is lost at barriers:
// the master's transfer count equals the sum of scripted requests.
func TestAllRequestsReachMaster(t *testing.T) {
	master := runMix()
	var want int64
	for i := 0; i < 4; i++ {
		end := int64(20000 * (i + 1))
		want += int64(len(script(int64(i+1), 400, end)))
	}
	if master.Transfers != want {
		t.Fatalf("master absorbed %d transfers, scripts issued %d", master.Transfers, want)
	}
}

// TestTermination pins progress with degenerate epoch widths: even a
// too-small EpochCycles must terminate (the slowest live core always steps).
func TestTermination(t *testing.T) {
	cfg := dram.DefaultConfig(1)
	master := dram.NewController(cfg)
	sh := dram.NewController(cfg)
	sh.StartLog()
	c := &fakeCore{sh: sh, evs: script(9, 50, 5000), end: 5000}
	Run([]Core{c}, []*dram.Controller{sh}, master, Config{EpochCycles: 0})
	if !c.Done() {
		t.Fatal("engine returned before the core finished")
	}
}
