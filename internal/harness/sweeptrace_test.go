package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/resultstore"
	"repro/internal/sweepobs"
	"repro/internal/testsupport"
)

// TestSweepTraceEndToEnd is the observability acceptance run: a mirrored,
// prefix-forked swap-latency sweep with one injected panic must
// produce a span dump that (a) covers the fork lineage and the store's
// WAL phases, (b) survives the coverage and critical-path invariants of
// sweepobs.Analyze, and (c) round-trips through the result store as a
// vtart- artifact.
func TestSweepTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}

	dir, mirror := t.TempDir(), t.TempDir()
	tr := sweepobs.New()
	p := forkTestParams(t)
	p.Checkpoint = true
	p.CacheDir = dir
	p.MirrorDir = mirror
	p.Sweep.Trace = tr
	NewMonitor(p.Sweep)
	// One deterministic panic: the nw/vt singleton trips the supervisor
	// and fails.
	p.Inject = &faultinject.Spec{Workload: "nw", Variant: "vt", Cycle: 100,
		Kind: faultinject.Panic}

	jobs := swapLatJobs("pathfinder", []int{0, 64, 256})
	jobs = append(jobs, Job{
		Workload: "nw",
		Variant:  "vt",
		Mutate:   func(c *config.GPUConfig) { c.Policy = config.PolicyVT },
	})
	var fe *FailedRunError
	if _, err := runMany(p, jobs); !errors.As(err, &fe) || fe.Failure.Workload != "nw" {
		t.Fatalf("err = %v, want the injected nw/vt failure", err)
	}
	p.Sweep.Sync() // the owner's barrier: batch spans land as commits finish

	d := tr.Dump()
	if d == nil || len(d.Spans) == 0 {
		t.Fatal("traced sweep produced an empty dump")
	}
	if d.Workers < 1 || d.Workers > 2 {
		t.Errorf("workers high-water = %d, want 1..2", d.Workers)
	}

	kinds := map[string]int{}
	forked, panicked := 0, 0
	for _, s := range d.Spans {
		kinds[s.Kind]++
		if s.Kind == "execute" && s.Attrs["outcome"] == "panic" {
			panicked++
		}
		if s.Kind == "execute" && s.Attrs["forked_from"] != "" {
			forked++
			if s.Attrs["resume_cycle"] == "" {
				t.Errorf("forked execute span missing resume_cycle: %+v", s.Attrs)
			}
		}
	}
	if kinds["plan"] != 1 {
		t.Errorf("plan spans = %d, want 1", kinds["plan"])
	}
	if kinds["job"] != len(jobs) {
		t.Errorf("job spans = %d, want %d", kinds["job"], len(jobs))
	}
	// 3 sweep points + the singleton, each run once.
	if kinds["execute"] != len(jobs) || panicked != 1 {
		t.Errorf("execute spans = %d with %d outcome=panic, want %d with 1", kinds["execute"], panicked, len(jobs))
	}
	if forked != 2 {
		t.Errorf("forked execute spans = %d, want 2 (donor plus two forks)", forked)
	}
	if kinds["fork.capture"] == 0 {
		t.Error("donor emitted no fork.capture event")
	}
	if kinds["fork.ckstore"] != 1 {
		t.Errorf("fork.ckstore spans = %d, want 1", kinds["fork.ckstore"])
	}
	if kinds["store.get"] == 0 {
		t.Error("no store.get lookup spans recorded")
	}
	if kinds["store.tx"] == 0 {
		t.Error("no store.tx spans recorded")
	}
	for _, ph := range []string{"store.stage", "store.commit", "store.apply", "store.replicate"} {
		if kinds[ph] == 0 {
			t.Errorf("no %s WAL-phase spans (mirrored store)", ph)
		}
	}
	// One store.tx span per group-commit batch: sized, filed beside the
	// jobs rather than under one, and matched by the /metrics histogram.
	kindOf := map[sweepobs.SpanID]string{}
	for _, s := range d.Spans {
		kindOf[s.ID] = s.Kind
	}
	batchTxs, firstBatches := 0, 0
	for _, s := range d.Spans {
		if s.Kind != "store.tx" {
			continue
		}
		n, err := strconv.Atoi(s.Attrs["txs"])
		if err != nil || n < 1 || s.Attrs["ops"] == "" {
			t.Errorf("store.tx span without batch size attrs: %+v", s.Attrs)
		}
		// Mirrored, one object per transaction and no journal: the pack,
		// the log and the index on the primary, the pack and the index on
		// the mirror — one fsync per file whatever the batch size, in three
		// rounds. The store's first batch also fsyncs the four directories
		// it created a file in.
		syncs, _ := strconv.Atoi(s.Attrs["syncs"])
		rounds, _ := strconv.Atoi(s.Attrs["rounds"])
		if syncs == 9 {
			firstBatches++
		} else if syncs != 5 || rounds != 3 {
			t.Errorf("store.tx span of %d transactions reports %d fsyncs in %d rounds, want 5 in 3", n, syncs, rounds)
		}
		batchTxs += n
		if kindOf[s.Parent] == "job" {
			t.Errorf("store.tx span %d is filed under a job", s.ID)
		}
	}
	// Three cacheable results and the donor's checkpoint; the injected
	// job caches nothing.
	if batchTxs != 4 || firstBatches != 1 {
		t.Errorf("store.tx spans account for %d transactions in %d first batches, want 4 in 1", batchTxs, firstBatches)
	}
	var exposition strings.Builder
	if err := p.Sweep.Monitor.WriteMetrics(&exposition); err != nil {
		t.Fatal(err)
	}
	samples, err := testsupport.ValidateExposition(exposition.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if samples["vtsweep_store_batch_txs_count"] != float64(kinds["store.tx"]) ||
		samples["vtsweep_store_batch_txs_sum"] != float64(batchTxs) {
		t.Errorf("vtsweep_store_batch_txs count/sum = %v/%v, want %d/%d",
			samples["vtsweep_store_batch_txs_count"], samples["vtsweep_store_batch_txs_sum"],
			kinds["store.tx"], batchTxs)
	}
	if kinds["supervisor.panic"] != 1 {
		t.Errorf("supervisor.panic events = %d, want 1", kinds["supervisor.panic"])
	}

	// Critical-path analysis: spans must cover (almost all of) the wall
	// clock and the path must tile it exactly.
	a := sweepobs.Analyze(d)
	if a == nil {
		t.Fatal("Analyze returned nil for a populated dump")
	}
	if a.Coverage < 0.95 {
		t.Errorf("span coverage = %.3f, want >= 0.95", a.Coverage)
	}
	var pathNS int64
	for _, s := range a.Path {
		pathNS += s.DurNS
	}
	if pathNS != d.WallNS {
		t.Errorf("critical path sums to %d ns, wall is %d ns", pathNS, d.WallNS)
	}
	stages := map[string]bool{}
	for _, b := range a.Breakdown {
		stages[b.Stage] = true
	}
	if !stages["execute"] {
		t.Errorf("breakdown missing execute stage: %+v", a.Breakdown)
	}

	// Persist through the store (both replicas), then read back cold.
	if err := p.Sweep.PersistTrace(p, d); err != nil {
		t.Fatal(err)
	}
	// On disk, on both sides, the artifact is the dump itself: the pack
	// range its index line names, byte-equal across the sides.
	var sides [][]byte
	for _, root := range []string{dir, mirror} {
		b, ok := storeObjects(t, root, resultstore.KindArtifact)[SweepTraceArtifactKey]
		if !ok {
			t.Errorf("persisted trace missing in %s", root)
			continue
		}
		var onDisk sweepobs.Dump
		if err := json.Unmarshal(b, &onDisk); err != nil || onDisk.SchemaVersion != 1 || len(onDisk.Spans) != len(d.Spans) {
			t.Errorf("%s: the vtart-sweeptrace range is not the dump: %v (schema_version %d, %d spans)",
				root, err, onDisk.SchemaVersion, len(onDisk.Spans))
		}
		sides = append(sides, b)
	}
	if len(sides) == 2 && !bytes.Equal(sides[0], sides[1]) {
		t.Error("the trace differs between primary and mirror")
	}
	p.Sweep.Close() // release the store before reopening it
	got, err := LoadSweepTrace(dir, mirror)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != sweepobs.DumpSchemaVersion {
		t.Errorf("schema = %d, want %d", got.SchemaVersion, sweepobs.DumpSchemaVersion)
	}
	if len(got.Spans) != len(d.Spans) || got.WallNS != d.WallNS {
		t.Errorf("round-trip mismatch: %d spans wall %d, want %d spans wall %d",
			len(got.Spans), got.WallNS, len(d.Spans), d.WallNS)
	}
}
