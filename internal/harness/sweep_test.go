package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/testsupport"
)

// TestSweepsAreIndependent: two sweeps in one process share nothing. Run
// side by side over disjoint batches, each one's Monitor reports its own
// requests and executions (not the process's sum), and two sweeps over
// one directory with different StoreFault hooks each meet their own.
func TestSweepsAreIndependent(t *testing.T) {
	batches := [][]Job{
		policyJobs([]string{"vecadd", "nw", "bfs"}, []config.Policy{config.PolicyBaseline}),
		policyJobs([]string{"vecadd"}, []config.Policy{config.PolicyBaseline, config.PolicyVT}),
	}
	dir := t.TempDir()
	var ps [2]Params
	var wg sync.WaitGroup
	for i := range ps {
		ps[i] = inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, Workers: 2,
			CacheDir: dir, StoreFault: testsupport.NewStoreRecorder()})
		wg.Add(1)
		go func(p Params, jobs []Job) {
			defer wg.Done()
			if _, err := runMany(p, jobs); err != nil {
				t.Error(err)
			}
			p.Sweep.Sync()
		}(ps[i], batches[i])
	}
	wg.Wait()
	for i, p := range ps {
		m := p.Sweep.Monitor.Status().Metrics
		if m.Requests != len(batches[i]) || m.Executed+m.StoreHits != len(batches[i]) {
			t.Errorf("sweep %d: monitor reports %d requests, %d executed + %d store hits, want its own batch of %d",
				i, m.Requests, m.Executed, m.StoreHits, len(batches[i]))
		}
		if len(p.StoreFault.(*testsupport.StoreHook).Trace()) == 0 {
			t.Errorf("sweep %d never met its own store hook", i)
		}
	}

	// One sweep, one store: a Params naming another directory is refused.
	other := ps[0]
	other.CacheDir = t.TempDir()
	if _, err := runMany(other, []Job{{Workload: "spmv"}}); err == nil || !strings.Contains(err.Error(), "one sweep, one store") {
		t.Errorf("second directory under one sweep: err = %v, want it refused", err)
	}
}

// TestOpenJournalDerivesMeta: the journal header is what Params already
// says — scale, dilution, config name, sampling windows — on both sides of
// a mirrored store, made durable through the store's hook (each side's
// file and directory: four fsyncs, which a test hook skips), and a sweep
// of another shape rotates both aside.
func TestOpenJournalDerivesMeta(t *testing.T) {
	hook := testsupport.PassThrough()
	p := inSweep(t, Params{Scale: 2, Config: config.GTX480(), Dilute: 30,
		Sampling: gpu.SamplingOptions{DetailedCycles: 4000, FastForwardCycles: 8000, WarmupCycles: 1000},
		CacheDir: t.TempDir(), MirrorDir: t.TempDir(), StoreFault: hook})
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	p.Sweep.Close()
	if n := hook.Syncs(); n != 4 {
		t.Errorf("a fresh mirrored journal open asked the hook for %d fsyncs, want 4", n)
	}
	want := JournalMeta{Scale: 2, Dilute: 30, Config: "gtx480", Sampling: "4000:8000:1000"}
	for _, dir := range []string{p.CacheDir, p.MirrorDir} {
		if !journalHeaderIs(t, filepath.Join(dir, JournalFileName), want) {
			t.Errorf("%s: journal does not carry %+v", dir, want)
		}
	}
	exact := p
	exact.StoreFault = nil
	exact = inSweep(t, exact)
	exact.Sampling = gpu.SamplingOptions{}
	if err := exact.Sweep.OpenJournal(exact); err != nil {
		t.Fatal(err)
	}
	exactMeta := want
	exactMeta.Sampling = ""
	for _, dir := range []string{p.CacheDir, p.MirrorDir} {
		path := filepath.Join(dir, JournalFileName)
		if !journalHeaderIs(t, path, exactMeta) || !journalHeaderIs(t, path+".old", want) {
			t.Errorf("%s: an exact sweep did not rotate the sampled sweep's journal aside for its own", dir)
		}
	}
}

// TestOpenJournalWithoutStoreTouchesNothing: a sweep with no store has
// no journal, so opening one writes nothing — not into the working
// directory either — and the sweep does not journal.
func TestOpenJournalWithoutStoreTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 60})
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	if p.Sweep.journaled {
		t.Error("a sweep without a store journals")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("opening the journal without a store wrote into the working directory: %v %v", ents, err)
	}
}

// TestNoPackageState keeps shared mutable state out of package scope in
// the sweep, the workloads it runs, the store it commits to, the memory
// model and the fleet: a non-test file of harness, kernels, isa,
// resultstore, mem or fabric may declare a package-level variable only
// if its package's allow-list names it — a table filled once and only
// read after, or a sentinel error. What a sweep learns belongs in Sweep;
// a workload is built from its arguments (kernels.Arena) and its kernel
// is decoded when it is built; a store's test seam is its Options.Fault.
func TestNoPackageState(t *testing.T) {
	noPackageState(t, ".", "experiments")
	noPackageState(t, "../kernels", "registry")
	noPackageState(t, "../isa", "opNames")
	noPackageState(t, "../resultstore", "ErrNotFound", "ErrClosed")
	noPackageState(t, "../mem")
	noPackageState(t, "../fabric")
}

// noPackageState fails t for every package-level variable that the
// non-test files in dir declare and allow does not name.
func noPackageState(t *testing.T, dir string, allow ...string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if !slices.Contains(allow, id.Name) {
							t.Errorf("%s/%s: package-level var %s is shared state; make it a value the caller passes",
								pkg.Name, filepath.Base(name), id.Name)
						}
					}
				}
			}
		}
	}
}
