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
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// buildMu serializes workload construction (factories read arenaBase).
var buildMu sync.Mutex

// Each workload's global-memory buffers live in an arena: five 16 MiB
// regions starting at the arena base. Factories read the base that was
// current when they were invoked — their launch parameters and their Init
// closures alike capture it then, so an Init may run at any time, from
// any goroutine — and concurrent-kernel runs can give every launch a
// disjoint arena (see BuildAt).
const (
	// ArenaStride separates consecutive arenas (5 buffers + headroom).
	ArenaStride = 0x0800_0000
	// DefaultArena is the base used by Build and Suite.
	DefaultArena = 0x0100_0000

	bufStride = 0x0100_0000
)

// arenaBase is the buffer base factories capture at build time. It is only
// mutated inside BuildAt, which restores it before returning; factories
// are not concurrency-safe, so every caller serializes through buildMu.
var arenaBase uint32 = DefaultArena

func bufA() uint32 { return arenaBase }
func bufB() uint32 { return arenaBase + 1*bufStride }
func bufC() uint32 { return arenaBase + 2*bufStride }
func bufD() uint32 { return arenaBase + 3*bufStride }
func bufE() uint32 { return arenaBase + 4*bufStride }

// Workload is one benchmark instance: a launch plus its host-side input
// initialization.
type Workload struct {
	Name        string
	Description string
	Launch      *isa.Launch
	// Init preloads structured inputs (graphs, matrices); may be nil.
	Init func(*mem.Backing)
	// MemoryBound records the rough character used in reports.
	MemoryBound bool
}

// Factory builds a workload at the given scale (grid size multiplier;
// scale 1 is the evaluation size).
type Factory func(scale int) Workload

// registry maps workload names to factories in registration order.
var registry []struct {
	name string
	f    Factory
}

func register(name string, f Factory) {
	registry = append(registry, struct {
		name string
		f    Factory
	}{name, f})
}

// Names returns the registered workload names in suite order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Build constructs the named workload — from the headline suite or the
// extension set — in the default memory arena.
func Build(name string, scale int) (Workload, error) {
	return BuildAt(name, scale, DefaultArena)
}

// BuildAt constructs the named workload with its buffers based at the
// given arena. Concurrent-kernel runs give each launch a disjoint arena
// (base + k*ArenaStride) so their inputs and outputs never collide.
func BuildAt(name string, scale int, arena uint32) (Workload, error) {
	buildMu.Lock()
	defer buildMu.Unlock()
	prev := arenaBase
	arenaBase = arena
	defer func() { arenaBase = prev }()

	for _, e := range registry {
		if e.name == name {
			return e.f(scale), nil
		}
	}
	for _, e := range extraRegistry {
		if e.name == name {
			return e.f(scale), nil
		}
	}
	known := append(Names(), ExtraNames()...)
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
		w, err := BuildAt(part, scale, uint32(DefaultArena+k*ArenaStride))
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

// Suite returns every workload at the given scale, in suite order, all in
// the default arena (they are run one at a time).
func Suite(scale int) []Workload {
	buildMu.Lock()
	defer buildMu.Unlock()
	out := make([]Workload, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.f(scale))
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
