package harness

import (
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
)

// Allocation ceilings for the steady-state trial loop and the serial
// litmus-suite exploration. Allocation counts do not depend on the host,
// so unlike wall-clock cost they can be gated in a unit test. Each
// ceiling is the larger of 1.25× and +0.5 over the allocs_per_run that
// the retired `pctwm-bench -json` engine snapshot recorded for the cell:
// the point at which its 25 % allocation gate (with half an allocation
// of absolute slack) fired.
const (
	dekkerRandomAllocCeiling  = 2.03  // recorded 1.53
	dekkerPCTWMAllocCeiling   = 2.5   // recorded 2
	msqueueRandomAllocCeiling = 9.70  // recorded 7.76
	msqueuePCTWMAllocCeiling  = 7.50  // recorded 6.00
	seqlockRandomAllocCeiling = 5.00  // recorded 4.00
	seqlockPCTWMAllocCeiling  = 2.21  // recorded 1.71
	exploreAllocCeiling       = 13.72 // recorded 10.97 per explored execution
)

// TestTrialLoopAllocCeilings: a warmed Runner reused across seeds stays
// under each cell's allocation ceiling per trial, for the random baseline
// and for PCTWM at the benchmark's design depth.
func TestTrialLoopAllocCeilings(t *testing.T) {
	cases := []struct {
		bench   string
		pctwm   bool
		ceiling float64
	}{
		{"dekker", false, dekkerRandomAllocCeiling},
		{"dekker", true, dekkerPCTWMAllocCeiling},
		{"msqueue", false, msqueueRandomAllocCeiling},
		{"msqueue", true, msqueuePCTWMAllocCeiling},
		{"seqlock", false, seqlockRandomAllocCeiling},
		{"seqlock", true, seqlockPCTWMAllocCeiling},
	}
	for _, tc := range cases {
		b := mustBench(t, tc.bench)
		prog := b.Program(0)
		opts := b.Options()
		var strat engine.Strategy = core.NewRandom()
		if tc.pctwm {
			// The snapshot cell's estimate: pctwm-bench's probe at seed 1.
			est := EstimateParams(prog, 20, 1^0x5eed, opts)
			strat = core.NewPCTWM(b.Depth, 1, est.KCom)
		}
		t.Run(tc.bench+"/"+strat.Name(), func(t *testing.T) {
			r := engine.NewRunner(prog, opts)
			defer r.Close()
			for i := 0; i < 200; i++ {
				r.Run(strat, int64(i))
			}
			seed := int64(0)
			allocs := testing.AllocsPerRun(2000, func() {
				r.Run(strat, seed)
				seed++
			})
			t.Logf("%.2f allocs per trial", allocs)
			if allocs > tc.ceiling {
				t.Fatalf("%.2f allocs per trial, ceiling %.2f", allocs, tc.ceiling)
			}
		})
	}
}

// TestExploreAllocCeiling: exhausting the litmus suite with the serial
// explorer stays under the allocation ceiling per explored execution.
func TestExploreAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the full litmus suite")
	}
	runs := 0
	allocs := testing.AllocsPerRun(1, func() {
		runs = 0
		for _, lt := range litmus.Suite() {
			_, res := enumerate.Outcomes(lt.Program, engine.Options{},
				enumerate.Config{Limit: 2_000_000, Workers: 1}, func(o *engine.Outcome) string {
					return lt.Outcome(o.FinalValues)
				})
			if res.Drift != nil {
				t.Fatal(res.Drift)
			}
			runs += res.Runs
		}
	})
	perExec := allocs / float64(runs)
	t.Logf("%.2f allocs per explored execution over %d executions", perExec, runs)
	if perExec > exploreAllocCeiling {
		t.Fatalf("%.2f allocs per explored execution over %d executions, ceiling %.2f",
			perExec, runs, exploreAllocCeiling)
	}
}
