package vtsim

import (
	"strings"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	w, err := BuildWorkload("vecadd", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch.GridDim.X = 16
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.IPC() <= 0 {
		t.Fatal("empty result")
	}
}

func TestPublicVTRun(t *testing.T) {
	cfg := SmallConfig().WithPolicy(PolicyVT)
	w, err := BuildWorkload("nw", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch.GridDim.X = 32
	var events int
	res, err := RunTraced(w, cfg, func(TraceEvent) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != PolicyVT {
		t.Fatalf("policy = %v", res.Policy)
	}
	if events == 0 {
		t.Fatal("no trace events from VT run")
	}
}

// TestPublicRunCollected: the collector's GPU ring is the run's time
// series, and a sampling interval is refused in favour of its window.
func TestPublicRunCollected(t *testing.T) {
	cfg := SmallConfig().WithPolicy(PolicyVT)
	w, err := BuildWorkload("nw", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch.GridDim.X = 32
	if _, err := RunCollected(w, cfg, 500, nil, NewCollector(TelemetryConfig{})); err == nil ||
		!strings.Contains(err.Error(), "TelemetryConfig.Window") {
		t.Fatalf("sampleInterval 500 accepted (err %v)", err)
	}
	col := NewCollector(TelemetryConfig{Window: 500})
	res, err := RunCollected(w, cfg, 0, nil, col)
	if err != nil {
		t.Fatal(err)
	}
	ring := col.Dump().GPU
	if len(ring) == 0 || ring[0].Cycle != 500 || ring[len(ring)-1].Cycle != res.Cycles {
		t.Fatalf("ring of %d windows does not tile [0, %d) in 500-cycle steps", len(ring), res.Cycles)
	}
}

func TestPublicWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 22 {
		t.Fatalf("suite = %d workloads", len(names))
	}
	if len(Suite(1)) != 22 {
		t.Fatal("Suite size mismatch")
	}
}

func TestPublicExperiments(t *testing.T) {
	if len(Experiments()) != 19 {
		t.Fatalf("experiments = %d", len(Experiments()))
	}
	var sb strings.Builder
	if err := RunExperiment("table1-config", DefaultExperimentParams(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "register file") {
		t.Fatal("config table missing content")
	}
	if err := RunExperiment("bogus", DefaultExperimentParams(), &sb); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestPublicRunLaunchKeepsBacking(t *testing.T) {
	w, err := BuildWorkload("vecadd", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch.GridDim.X = 8
	var kept *Backing
	_, err = RunLaunch(w.Launch, SmallConfig(), w.Init, func(b *Backing) { kept = b })
	if err != nil {
		t.Fatal(err)
	}
	if kept == nil {
		t.Fatal("backing not returned")
	}
}

func TestPublicRunConcurrent(t *testing.T) {
	cfg := SmallConfig().WithPolicy(PolicyVT)
	res, err := RunConcurrentNames([]string{"nw", "montecarlo"}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerKernel) != 2 {
		t.Fatalf("PerKernel = %+v", res.PerKernel)
	}
	if res.PerKernel[0].Issued == 0 || res.PerKernel[1].Issued == 0 {
		t.Fatal("both kernels must issue")
	}
}
