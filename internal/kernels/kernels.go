// Package kernels provides the synthetic workload suite used by the
// evaluation. Each kernel is hand-assembled in the simulator ISA with a
// resource signature (threads/CTA, registers/thread, shared memory/CTA,
// memory intensity, divergence, barrier density) modeled on the
// Rodinia/Parboil-class benchmarks the paper evaluates. Virtual Thread's
// benefit depends on that signature — which hardware limit binds and how
// much time warps spend in long-latency stalls — rather than on exact
// program semantics, so matched signatures reproduce the paper's behaviour
// shapes.
package kernels

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
)

// An Arena is the base address of one workload's global-memory buffers:
// five 16 MiB regions, bufA to bufE. A factory takes its arena as an
// argument and its launch parameters and Init closure capture it, so an
// Init may run at any time, from any goroutine, and a concurrent-kernel
// run can give every launch a disjoint arena (see BuildMix).
type Arena uint32

const (
	// ArenaStride separates consecutive arenas (5 buffers + headroom).
	ArenaStride = 0x0800_0000
	// DefaultArena is the arena Build and Suite use.
	DefaultArena Arena = 0x0100_0000

	bufStride = 0x0100_0000
)

func (a Arena) bufA() uint32 { return uint32(a) }
func (a Arena) bufB() uint32 { return uint32(a) + 1*bufStride }
func (a Arena) bufC() uint32 { return uint32(a) + 2*bufStride }
func (a Arena) bufD() uint32 { return uint32(a) + 3*bufStride }
func (a Arena) bufE() uint32 { return uint32(a) + 4*bufStride }

// Workload is one benchmark instance: a launch plus its host-side input
// initialization.
type Workload struct {
	Name        string
	Description string
	Launch      *isa.Launch
	// Init preloads structured inputs (graphs, matrices); may be nil.
	Init func(*mem.Backing)
}

// Factory builds a workload at the given scale (grid size multiplier;
// scale 1 is the evaluation size) with its buffers in arena a.
type Factory func(scale int, a Arena) Workload

// Class tags a registered workload: the headline suite the paper-facing
// tables cover, or an extension that fig-extras evaluates apart.
type Class uint8

// Workload classes.
const (
	Headline Class = iota
	Extension
)

// registry lists every workload in registration order, which is the
// order Names and Suite return and the tables print.
var registry = []struct {
	name  string
	class Class
	f     Factory
}{
	{"kmeans", Headline, KMeans},
	{"hotspot", Headline, Hotspot},
	{"montecarlo", Headline, MonteCarlo},
	{"bfs", Headline, BFS},
	{"spmv", Headline, SpMV},
	{"gaussian", Headline, Gaussian},
	{"cfd", Headline, CFD},
	{"streamcluster", Headline, StreamCluster},
	{"mummer", Headline, Mummer},
	{"dwt2d", Headline, DWT2D},
	{"nn", Headline, NN},
	{"particlefilter", Headline, ParticleFilter},
	{"heartwall", Headline, HeartWall},
	{"vecadd", Headline, VecAdd},
	{"stencil3d", Headline, Stencil3D},
	{"srad", Headline, SRAD},
	{"transpose", Headline, Transpose},
	{"backprop", Headline, Backprop},
	{"pathfinder", Headline, Pathfinder},
	{"lud", Headline, LUD},
	{"nw", Headline, NW},
	{"reduce", Headline, Reduce},

	{"gemm", Extension, GEMM},
	{"histogram", Extension, Histogram},
	{"bitonic", Extension, Bitonic},
	{"scatteradd", Extension, ScatterAdd},
}

// Names returns the names of the class's workloads in registration order.
func Names(c Class) []string {
	var out []string
	for _, e := range registry {
		if e.class == c {
			out = append(out, e.name)
		}
	}
	return out
}

// Build constructs the named workload, of either class, in the default
// arena.
func Build(name string, scale int) (Workload, error) {
	return BuildAt(name, scale, DefaultArena)
}

// BuildAt constructs the named workload with its buffers in arena a.
func BuildAt(name string, scale int, a Arena) (Workload, error) {
	for _, e := range registry {
		if e.name == name {
			return e.f(scale, a), nil
		}
	}
	known := append(Names(Headline), Names(Extension)...)
	sort.Strings(known)
	return Workload{}, fmt.Errorf("kernels: unknown workload %q (known: %v)", name, known)
}

// MixSep joins the parts of a concurrent-kernel mix's name.
const MixSep = "+"

// BuildMix turns a workload name into what a run launches: one kernel, or
// for a MixSep-joined name ("nw+montecarlo") a concurrent-kernel mix whose
// part k is built in arena DefaultArena + k*ArenaStride, in name order.
// The returned init preloads every part's inputs. An unknown part is
// BuildAt's unknown-workload error.
func BuildMix(name string, scale int) ([]*isa.Launch, func(*mem.Backing), error) {
	var launches []*isa.Launch
	var inits []func(*mem.Backing)
	for k, part := range strings.Split(name, MixSep) {
		w, err := BuildAt(part, scale, DefaultArena+Arena(k)*ArenaStride)
		if err != nil {
			return nil, nil, err
		}
		launches = append(launches, w.Launch)
		if w.Init != nil {
			inits = append(inits, w.Init)
		}
	}
	return launches, func(bk *mem.Backing) {
		for _, f := range inits {
			f(bk)
		}
	}, nil
}

// Suite returns every headline workload at the given scale, in suite
// order, all in the default arena (they are run one at a time).
func Suite(scale int) []Workload {
	var out []Workload
	for _, e := range registry {
		if e.class == Headline {
			out = append(out, e.f(scale, DefaultArena))
		}
	}
	return out
}

// emitGid emits the standard prologue computing the global thread id into
// R0 and its x4 byte offset into R1, using R2 as scratch.
func emitGid(b *isa.Builder) {
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(2, isa.SrNTidX)
	b.IMul(0, 0, 2)
	b.S2R(2, isa.SrTidX)
	b.IAdd(0, 0, 2)
	b.ShlImm(1, 0, 2)
}

// lcg is the deterministic pseudo-random generator used for synthetic
// inputs (same constants as the backing store's synthesizer family).
func lcg(x uint32) uint32 {
	x = x*1664525 + 1013904223
	x ^= x >> 13
	return x
}

func f32(u uint32) float32 {
	// Map to a small positive float in [0.5, 1.5) for numerically tame
	// kernels.
	return 0.5 + float32(u%1024)/1024
}
