// Package vtsim is the public API of the Virtual Thread reproduction: a
// cycle-level GPU simulator with baseline, Virtual Thread (ISCA 2016),
// ideal, and full-swap CTA scheduling policies, a 22-kernel synthetic
// workload suite, and the experiment harness that regenerates every table
// and figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := vtsim.GTX480().WithPolicy(vtsim.PolicyVT)
//	w, _ := vtsim.BuildWorkload("bfs", 1)
//	res, _ := vtsim.Run(w, cfg)
//	fmt.Println(res.IPC(), res.VT.SwapsOut)
//
// The deeper layers remain importable inside this module: internal/isa to
// assemble custom kernels, internal/gpu for raw launches, internal/core
// for the VT controller itself.
package vtsim

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Config is the hardware description of the simulated GPU.
type Config = config.GPUConfig

// Policy selects the CTA scheduling architecture.
type Policy = config.Policy

// CTA scheduling policies.
const (
	PolicyBaseline = config.PolicyBaseline
	PolicyVT       = config.PolicyVT
	PolicyIdeal    = config.PolicyIdeal
	PolicyFullSwap = config.PolicyFullSwap
)

// Warp scheduler kinds.
const (
	SchedGTO = config.SchedGTO
	SchedLRR = config.SchedLRR
)

// GTX480 returns the paper's Fermi-class hardware configuration.
func GTX480() Config { return config.GTX480() }

// SmallConfig returns a scaled-down configuration for experimentation.
func SmallConfig() Config { return config.Small() }

// Workload is a benchmark instance from the synthetic suite.
type Workload = kernels.Workload

// Result is the outcome of one simulation.
type Result = gpu.Result

// VTStats are the Virtual Thread controller counters in a Result.
type VTStats = core.Stats

// Launch binds a kernel to its grid; build custom kernels with
// internal/isa's Builder.
type Launch = isa.Launch

// Backing is the functional global-memory contents.
type Backing = mem.Backing

// WorkloadNames lists the synthetic suite in evaluation order.
func WorkloadNames() []string { return kernels.Names(kernels.Headline) }

// BuildWorkload constructs a suite workload at the given grid scale
// (1 = evaluation size).
func BuildWorkload(name string, scale int) (Workload, error) {
	return kernels.Build(name, scale)
}

// Suite returns every suite workload at the given scale.
func Suite(scale int) []Workload { return kernels.Suite(scale) }

// Run simulates a suite workload on the configured GPU.
func Run(w Workload, cfg Config) (*Result, error) {
	return gpu.Run(w.Launch, cfg, gpu.Options{InitMemory: w.Init})
}

// RunLaunch simulates an arbitrary launch, optionally preloading global
// memory and receiving it back after the run.
func RunLaunch(l *Launch, cfg Config, init func(*Backing), keep func(*Backing)) (*Result, error) {
	return gpu.Run(l, cfg, gpu.Options{InitMemory: init, KeepBacking: keep})
}

// TraceEvent is a Virtual Thread CTA state transition.
type TraceEvent = core.TraceEvent

// RunTraced simulates a workload under a VT policy, streaming CTA state
// transitions to trace.
func RunTraced(w Workload, cfg Config, trace func(TraceEvent)) (*Result, error) {
	return gpu.Run(w.Launch, cfg, gpu.Options{InitMemory: w.Init, Trace: trace})
}

// Experiment is one reproducible table or figure of the evaluation.
type Experiment = harness.Experiment

// ExperimentParams configure a harness run.
type ExperimentParams = harness.Params

// DefaultExperimentParams returns the evaluation defaults (full GTX 480,
// scale 1).
func DefaultExperimentParams() ExperimentParams { return harness.DefaultParams() }

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return harness.Experiments() }

// facade holds the one process-wide sweep left: the state — memo, work
// counters, open result store — that the package-level experiment
// functions below share between calls. Everything under internal/ takes
// its harness.Sweep as a value.
var facade struct {
	mu sync.Mutex
	sw *harness.Sweep
}

// facadeSweep returns the current facade sweep, or with reset a fresh one
// (the old one is closed: its store drained and released).
func facadeSweep(reset bool) *harness.Sweep {
	facade.mu.Lock()
	defer facade.mu.Unlock()
	if reset && facade.sw != nil {
		facade.sw.Close()
		facade.sw = nil
	}
	if facade.sw == nil {
		facade.sw = harness.NewSweep()
	}
	return facade.sw
}

// RunExperiment executes one experiment by ID, writing its tables to w.
// With ExperimentParams.CacheDir set, run outcomes reach the store
// write-behind: call ResetExperimentMetrics, which drains and closes the
// store, before exiting or reading the directory. Every call between two
// ResetExperimentMetrics shares one memo and at most one CacheDir.
func RunExperiment(id string, p ExperimentParams, w io.Writer) error {
	e, err := harness.Get(id)
	if err != nil {
		return err
	}
	p.Sweep = facadeSweep(false)
	return harness.RunExperiments(p, []Experiment{e}, harness.Output{W: w}, nil)
}

// ResetExperimentMetrics zeroes the work counters, empties the harness
// memo cache and closes the result store, if one is open: the experiment
// functions start over in a fresh sweep.
func ResetExperimentMetrics() { facadeSweep(true) }

// RunConcurrentNames simulates the named suite workloads executing
// concurrently on one GPU (concurrent kernel execution), giving each a
// disjoint memory arena. The dispatcher interleaves their CTAs across
// SMs, and under VT inactive CTAs of different kernels share each SM's
// capacity. Result.PerKernel reports per-launch counts.
func RunConcurrentNames(names []string, scale int, cfg Config) (*Result, error) {
	launches, initMem, err := kernels.BuildMix(strings.Join(names, kernels.MixSep), scale)
	if err != nil {
		return nil, err
	}
	return gpu.RunMulti(launches, cfg, gpu.Options{InitMemory: initMem})
}

// Collector gathers per-window metric rings, lifecycle spans, and the
// Perfetto timeline of one run; see internal/telemetry.
type Collector = telemetry.Collector

// TelemetryConfig sets up a Collector (zero value = defaults).
type TelemetryConfig = telemetry.Config

// NewCollector returns a telemetry collector to pass to RunCollected.
func NewCollector(cfg TelemetryConfig) *Collector { return telemetry.NewCollector(cfg) }

// RunCollected simulates a suite workload with the telemetry collector
// attached (and optionally a VT trace callback). The collector is a pure
// observer: the Result is bit-identical to an uncollected run. Read
// col.Dump() or col.WritePerfetto() afterwards; the dump's GPU ring is the
// run's occupancy and IPC time series. sampleInterval must be 0: the
// series' window length is TelemetryConfig.Window.
func RunCollected(w Workload, cfg Config, sampleInterval int64, trace func(TraceEvent), col *Collector) (*Result, error) {
	if sampleInterval != 0 {
		return nil, fmt.Errorf("vtsim: RunCollected sampleInterval %d: set TelemetryConfig.Window instead", sampleInterval)
	}
	return gpu.Run(w.Launch, cfg, gpu.Options{
		InitMemory: w.Init,
		Trace:      trace,
		Telemetry:  col,
	})
}
