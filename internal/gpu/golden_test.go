package gpu

// Golden regression tests: the simulator is deterministic, so these exact
// cycle and issue counts must not drift unless a timing model change is
// intentional — in which case regenerate them (instructions below) and
// re-examine EXPERIMENTS.md.
//
// Regenerate by running each (workload, policy) pair at grid=24 on
// testsupport.Small() and copying Cycles/Issued.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/testsupport"
)

func TestGoldenCycleCounts(t *testing.T) {
	cases := []struct {
		workload string
		policy   config.Policy
		cycles   int64
		issued   int64
	}{
		{"nw", config.PolicyBaseline, 9653, 6504},
		{"nw", config.PolicyVT, 9440, 6504},
		{"pathfinder", config.PolicyBaseline, 8975, 8976},
		{"pathfinder", config.PolicyVT, 6147, 8976},
		{"srad", config.PolicyBaseline, 2197, 5376},
		{"srad", config.PolicyVT, 2197, 5376},
		// bfs issue counts differ between policies legitimately: the
		// level array is marked cooperatively, so scheduling order
		// changes which thread performs each (idempotent) write.
		{"bfs", config.PolicyBaseline, 5646, 3928},
		{"bfs", config.PolicyVT, 5802, 3930},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload+"/"+tc.policy.String(), func(t *testing.T) {
			w, err := kernels.Build(tc.workload, 1)
			if err != nil {
				t.Fatal(err)
			}
			w.Launch.GridDim = isa.Dim1(24)
			res, err := Run(w.Launch, testsupport.Small().WithPolicy(tc.policy),
				Options{InitMemory: w.Init})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != tc.cycles || res.SM.Issued != tc.issued {
				t.Fatalf("golden drift: cycles %d (want %d), issued %d (want %d)\n"+
					"if this change is intentional, regenerate the goldens",
					res.Cycles, tc.cycles, res.SM.Issued, tc.issued)
			}
		})
	}
}
