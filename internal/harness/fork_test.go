package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/resultstore"
	"repro/internal/testsupport"
)

// swapLatJobs builds a small swap-latency sweep over one workload — the
// canonical prefix-fork shape: every job shares the run prefix up to the
// first swap.
func swapLatJobs(workload string, lats []int) []Job {
	var jobs []Job
	for _, l := range lats {
		l := l
		jobs = append(jobs, Job{
			Workload: workload,
			Variant:  fmt.Sprintf("lat%d", l),
			Mutate: func(c *config.GPUConfig) {
				c.Policy = config.PolicyVT
				c.VT.SwapOutLatency = l
				c.VT.SwapInLatency = l
			},
		})
	}
	return jobs
}

func forkTestParams(t testing.TB) Params {
	return inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 40, Workers: 2})
}

// TestForkPlanGrouping pins what forkPlan marks: jobs that differ only in
// the neutralized parameters share a prefix group; jobs that differ
// structurally, or singleton groups, are left alone.
func TestForkPlanGrouping(t *testing.T) {
	p := forkTestParams(t)
	p.Checkpoint = true
	jobs := swapLatJobs("pathfinder", []int{0, 64, 256})
	jobs = append(jobs, Job{
		Workload: "pathfinder",
		Variant:  "bigger",
		Mutate: func(c *config.GPUConfig) {
			c.Policy = config.PolicyVT
			c.NumSMs++ // structural: its prefix differs
		},
	})
	jobs = append(jobs, Job{Workload: "nw", Variant: "solo"})

	planned := forkPlan(p, jobs)
	for i := 0; i < 3; i++ {
		if planned[i].PrefixFP == "" {
			t.Errorf("sweep job %d not marked for forking", i)
		}
		if planned[i].PrefixFP != planned[0].PrefixFP {
			t.Errorf("sweep job %d in a different prefix group", i)
		}
	}
	if planned[3].PrefixFP != "" {
		t.Error("structurally different job joined the prefix group")
	}
	if planned[4].PrefixFP != "" {
		t.Error("singleton job marked for forking")
	}

	p.Checkpoint = false
	for i, j := range forkPlan(p, jobs) {
		if j.PrefixFP != "" {
			t.Errorf("job %d marked with Checkpoint disabled", i)
		}
	}
}

// TestPrefixForkEquivalence is the correctness bar: a prefix-forked sweep
// returns results bit-identical to the same sweep run without forking,
// while executing one donor and forking everyone else.
func TestPrefixForkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	lats := []int{0, 8, 64, 256}
	jobs := swapLatJobs("pathfinder", lats)

	pp := forkTestParams(t)
	plain, err := runMany(pp, jobs)
	if err != nil {
		t.Fatal(err)
	}
	plainM := pp.Sweep.Metrics()
	if plainM.Executed != len(lats) {
		t.Fatalf("plain sweep executed %d runs, want %d", plainM.Executed, len(lats))
	}

	p := forkTestParams(t)
	p.Checkpoint = true
	forked, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Sweep.Metrics()
	if m.CheckpointsCaptured != 1 {
		t.Fatalf("captured %d checkpoints, want 1 donor: %+v", m.CheckpointsCaptured, m)
	}
	if m.CheckpointHits != len(lats)-1 || m.CheckpointMisses != 0 {
		t.Fatalf("hits=%d misses=%d, want %d hits: %+v",
			m.CheckpointHits, m.CheckpointMisses, len(lats)-1, m)
	}
	if m.PrefixCyclesSaved <= 0 {
		t.Fatalf("no prefix cycles saved: %+v", m)
	}
	if m.SimCycles >= plainM.SimCycles {
		t.Fatalf("forked sweep simulated %d cycles, plain %d: forking saved nothing",
			m.SimCycles, plainM.SimCycles)
	}

	for k, ref := range plain {
		got := forked[k]
		if got == nil {
			t.Fatalf("%v missing from forked sweep", k)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%v: forked result diverged from plain run:\nplain:  cycles=%d vt=%+v\nforked: cycles=%d vt=%+v",
				k, ref.Cycles, ref.VT, got.Cycles, got.VT)
		}
	}
}

// TestPrefixForkDiskCheckpoint covers the cross-process path: the donor
// persists its checkpoint in the cache dir, and a later invocation (the
// in-memory caches reset, the cached Results removed) forks every sweep
// point from disk without re-simulating any prefix.
func TestPrefixForkDiskCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	lats := []int{0, 64, 256}
	jobs := swapLatJobs("pathfinder", lats)
	dir := t.TempDir()
	p := forkTestParams(t)
	p.Checkpoint = true
	p.CacheDir = dir

	first, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	p.Sweep.Sync()
	onlyObject(t, dir, resultstore.KindCheckpoint)

	// A fresh process that lost its result cache but kept the checkpoint:
	// every point forks, nobody simulates the prefix again.
	p = reboot(t, p)
	dropObjects(t, dir, resultstore.KindResult)
	second, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Sweep.Metrics()
	if m.CheckpointsCaptured != 0 {
		t.Fatalf("re-captured a checkpoint despite the disk copy: %+v", m)
	}
	if m.CheckpointHits != len(lats) {
		t.Fatalf("hits=%d, want all %d points to fork from disk: %+v", m.CheckpointHits, len(lats), m)
	}
	for k, ref := range first {
		if !reflect.DeepEqual(ref, second[k]) {
			t.Fatalf("%v: disk-forked result diverged", k)
		}
	}
}

// TestPrefixForkCheckpointQuarantine is the corruption regression: a
// truncated checkpoint envelope must be quarantined (dropped from the
// index) and the sweep must fall back to full simulation with correct
// results.
func TestPrefixForkCheckpointQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	lats := []int{0, 256}
	jobs := swapLatJobs("pathfinder", lats)
	dir := t.TempDir()
	p := forkTestParams(t)
	p.Checkpoint = true
	p.CacheDir = dir

	baseline, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	p.Sweep.Sync()
	// Index a truncated envelope in the checkpoint's place, and drop the
	// cached Results so the sweep really re-executes.
	p = reboot(t, p)
	key, body := onlyObject(t, dir, resultstore.KindCheckpoint)
	replaceObject(t, dir, resultstore.KindCheckpoint, key, body[:len(body)/2])
	dropObjects(t, dir, resultstore.KindResult)

	again, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := drops(t, dir, key); n != 1 {
		t.Fatalf("truncated checkpoint dropped %d times, want once", n)
	}
	// The donor re-ran and re-captured; results stay bit-identical.
	m := p.Sweep.Metrics()
	if m.CheckpointsCaptured != 1 {
		t.Fatalf("donor did not re-capture after quarantine: %+v", m)
	}
	for k, ref := range baseline {
		if !reflect.DeepEqual(ref, again[k]) {
			t.Fatalf("%v: result diverged after checkpoint quarantine", k)
		}
	}
	// And the re-capture wrote a healthy replacement.
	p.Sweep.Sync()
	if _, ck := onlyObject(t, dir, resultstore.KindCheckpoint); !json.Valid(ck) {
		t.Fatal("the re-captured checkpoint is not a whole envelope")
	}
}

// TestPrefixForkAblationSpeedup is the acceptance bar for the prefix-fork
// layer: a 12-point swap-latency ablation on a full-size workload must
// cost at least 1.5x less when prefix-forked, while every point's Result
// stays bit-identical to the unforked sweep. The cost gated on is the
// deterministic one, simulated cycles actually executed; the wall-clock
// ratio it buys (1.1-2.1x on a shared 2-vCPU host) is logged, not
// asserted.
func TestPrefixForkAblationSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	lats := []int{0, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 512}
	jobs := swapLatJobs("nw", lats)
	// Workers=1 serializes the jobs so wall time measures simulated work,
	// not scheduling luck.
	p := inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 4, Workers: 1})
	// Hold an elevated minimum residency constant across the sweep (it is
	// a pre-swap scheduling parameter, so it must NOT diverge between
	// points): it pushes the first swap — and with it the latest legal
	// fork point — deep into the run, which is the regime prefix forking
	// targets. 6144 keeps nw swapping (it stops above ~7168, which would
	// make the latency ablation vacuous); the first swap then lands just
	// past the residency floor, and the donor forks from the last periodic
	// capture below it.
	p.Config.VT.MinResidencyCycles = 6144

	t0 := time.Now()
	plain, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	plainWall := time.Since(t0)
	plainCycles := p.Sweep.Metrics().SimCycles

	pf := inSweep(t, p)
	pf.Checkpoint = true
	t0 = time.Now()
	forked, err := runMany(pf, jobs)
	if err != nil {
		t.Fatal(err)
	}
	forkWall := time.Since(t0)

	swapping := 0
	for k, ref := range plain {
		got := forked[k]
		if got == nil {
			t.Fatalf("%v missing from forked sweep", k)
		}
		if got.Cycles != ref.Cycles {
			t.Fatalf("%v: sim_cycles diverged: plain %d, forked %d", k, ref.Cycles, got.Cycles)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%v: forked result not DeepEqual to plain run", k)
		}
		if ref.VT.SwapsOut > 0 {
			swapping++
		}
	}
	// The sweep must actually exercise the ablated parameter: if no point
	// ever swaps, every suffix is identical and the speedup is vacuous.
	if swapping == 0 {
		t.Fatal("no point in the ablation performed any swaps; the latency sweep is vacuous")
	}
	m := pf.Sweep.Metrics()
	speedup := float64(plainCycles) / float64(m.SimCycles)
	t.Logf("plain %d cycles in %s, forked %d cycles in %s: %.2fx fewer cycles, %.2fx wall (%d captured, %d forks, %d prefix cycles saved)",
		plainCycles, plainWall.Round(time.Millisecond), m.SimCycles, forkWall.Round(time.Millisecond), speedup,
		float64(plainWall)/float64(forkWall), m.CheckpointsCaptured, m.CheckpointHits, m.PrefixCyclesSaved)
	if m.CheckpointHits != len(lats)-1 {
		t.Fatalf("only %d of %d points forked: %+v", m.CheckpointHits, len(lats)-1, m)
	}
	// Forked runs execute their suffix only: what they skipped is exactly
	// what the plain sweep simulated on top.
	if m.SimCycles+m.PrefixCyclesSaved != plainCycles {
		t.Fatalf("forked sweep executed %d cycles and skipped %d, plain executed %d", m.SimCycles, m.PrefixCyclesSaved, plainCycles)
	}
	if speedup < 1.5 {
		t.Fatalf("prefix forking cut the ablation's simulated cycles only %.2fx, want >= 1.5x", speedup)
	}
}

// TestPrefixForkJournal verifies forked runs record which checkpoint they
// resumed from.
func TestPrefixForkJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := forkTestParams(t)
	p.Checkpoint = true
	p.CacheDir = t.TempDir()
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	if _, err := runMany(p, swapLatJobs("pathfinder", []int{0, 64, 256})); err != nil {
		t.Fatal(err)
	}
	p.Sweep.Sync()

	b, err := os.ReadFile(filepath.Join(p.CacheDir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	n := strings.Count(string(b), `"forked_from":"`)
	if n != 2 {
		t.Fatalf("journal records %d forked runs, want 2 (3 points, 1 donor):\n%s", n, b)
	}
	if !strings.Contains(string(b), "@") {
		t.Fatalf("forked_from lacks the @cycle marker:\n%s", b)
	}
}
