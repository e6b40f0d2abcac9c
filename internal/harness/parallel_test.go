package harness

import (
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
)

// TestPooledWorkerCountsAgree: every worker count visits the same seeds,
// so the aggregate counters are identical to the one-worker reference —
// including worker counts above the number of runs, which ResolveWorkers
// caps. This test doubles as the `go test -race` exercise of the
// streaming pool on two structurally different benchmark programs.
func TestPooledWorkerCountsAgree(t *testing.T) {
	const runs = 120
	for _, name := range []string{"rwlock", "msqueue"} {
		t.Run(name, func(t *testing.T) {
			b, err := benchprog.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := b.Program(0)
			opts := b.Options()
			newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 25) }

			ref := RunCampaign(prog, b.Detect, newStrategy, runs, 11, opts, Campaign{Workers: 1})
			if ref.Runs != runs {
				t.Fatalf("one worker ran %d/%d rounds", ref.Runs, runs)
			}
			for _, workers := range []int{2, 3, 4, 8, 0, 2 * runs} {
				got := RunCampaign(prog, b.Detect, newStrategy, runs, 11, opts, Campaign{Workers: workers})
				if got.Runs != ref.Runs || got.Hits != ref.Hits || got.TotalEvents != ref.TotalEvents ||
					got.Aborted != ref.Aborted || got.Deadlock != ref.Deadlock {
					t.Fatalf("workers=%d diverges from one worker: %+v vs %+v", workers, got, ref)
				}
			}
		})
	}
}

// TestTrialResultWall: Wall measures the batch, Elapsed sums per-run time.
func TestTrialResultWall(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewRandom() },
		50, 1, b.Options(), Campaign{Workers: 1})
	if res.Wall <= 0 {
		t.Fatalf("wall time not measured: %+v", res)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("per-run time not summed: %+v", res)
	}
	if res.Wall < res.Elapsed/2 {
		t.Fatalf("one-worker wall %v implausibly below summed run time %v", res.Wall, res.Elapsed)
	}
}
