package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
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
		ps[i] = inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 60, Workers: 2,
			CacheDir: dir, StoreFault: faultinject.NewStoreRecorder()})
		NewMonitor(ps[i].Sweep)
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
		if len(p.StoreFault.Trace()) == 0 {
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
// a mirrored store, and a resume under another shape is refused.
func TestOpenJournalDerivesMeta(t *testing.T) {
	p := inSweep(t, Params{Scale: 2, Config: config.GTX480(), Dilute: 30,
		Sampling: gpu.SamplingOptions{DetailedCycles: 4000, FastForwardCycles: 8000, WarmupCycles: 1000},
		CacheDir: t.TempDir(), MirrorDir: t.TempDir()})
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	p.Sweep.Close()
	want := JournalMeta{Scale: 2, Dilute: 30, Config: "gtx480", Sampling: "4000:8000:1000"}
	for _, dir := range []string{p.CacheDir, p.MirrorDir} {
		jl, err := openJournal(filepath.Join(dir, JournalFileName), want, true)
		if err != nil {
			t.Errorf("%s: journal does not resume under %+v: %v", dir, want, err)
			continue
		}
		jl.Close()
	}
	exact := inSweep(t, p)
	exact.Sampling, exact.Resume = gpu.SamplingOptions{}, true
	if err := exact.Sweep.OpenJournal(exact); err == nil {
		t.Error("an exact sweep resumed a sampled sweep's journal")
	}
}

// TestNoPackageState keeps what a sweep learns out of package scope: no
// non-test file of this package may declare a package-level variable of
// map, slice, pointer, channel, mutex or context type — the shapes shared
// mutable state takes — except the experiments registry, which init-time
// register calls fill once.
func TestNoPackageState(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutable := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.MapType, *ast.ArrayType, *ast.StarExpr, *ast.ChanType:
				found = true
			case *ast.UnaryExpr:
				found = found || x.Op == token.AND
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && (pkg.Name == "sync" || pkg.Name == "context" || pkg.Name == "atomic") {
					found = true
				}
			case *ast.Ident:
				found = found || x.Name == "new" || x.Name == "make"
			}
			return !found
		})
		return found
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					bad := vs.Type != nil && mutable(vs.Type)
					for _, v := range vs.Values {
						bad = bad || mutable(v)
					}
					for _, id := range vs.Names {
						if bad && id.Name != "experiments" {
							t.Errorf("%s: package-level var %s holds shared mutable state; it belongs in Sweep",
								filepath.Base(name), id.Name)
						}
					}
				}
			}
		}
	}
}
