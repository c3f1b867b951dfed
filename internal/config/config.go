// Package config defines the hardware configuration of the simulated GPU:
// per-SM scheduling limits (CTA slots, warp slots, thread slots), capacity
// limits (register file, shared memory), pipeline and memory latencies, and
// the Virtual Thread parameters. Presets model a Fermi-class GTX 480, the
// configuration used by the paper's evaluation.
package config

import (
	"errors"
	"fmt"
)

// SchedulerKind selects the warp scheduling policy inside an SM.
type SchedulerKind int

const (
	// SchedGTO is greedy-then-oldest: keep issuing from the same warp
	// until it stalls, then fall back to the oldest ready warp.
	SchedGTO SchedulerKind = iota
	// SchedLRR is loose round-robin over ready warps.
	SchedLRR
	// SchedTwoLevel keeps a small active fetch group per scheduler,
	// round-robins inside it, and swaps stalled warps for pending ones
	// (Narasiman et al., MICRO 2011).
	SchedTwoLevel
)

// String returns the conventional short name of the scheduler.
func (k SchedulerKind) String() string {
	switch k {
	case SchedGTO:
		return "gto"
	case SchedLRR:
		return "lrr"
	case SchedTwoLevel:
		return "two-level"
	default:
		return fmt.Sprintf("sched(%d)", int(k))
	}
}

// Policy selects the CTA scheduling architecture under evaluation. It
// marshals to its String form in JSON output.
type Policy int

const (
	// PolicyBaseline respects both the scheduling and capacity limits,
	// as a stock GPU does.
	PolicyBaseline Policy = iota
	// PolicyVT is the paper's Virtual Thread architecture: CTAs are
	// resident up to the capacity limit, active up to the scheduling
	// limit, and swapped on long-latency stalls.
	PolicyVT
	// PolicyIdeal removes the scheduling limit entirely (as if PCs and
	// SIMT stacks were free); the capacity limit still binds. Upper
	// bound for VT.
	PolicyIdeal
	// PolicyFullSwap is the strawman that context-switches CTAs by
	// spilling registers and shared memory off-chip, paying a swap
	// latency proportional to the context footprint.
	PolicyFullSwap
)

// String returns the name used in reports for the policy.
func (p Policy) String() string {
	switch p {
	case PolicyBaseline:
		return "baseline"
	case PolicyVT:
		return "vt"
	case PolicyIdeal:
		return "ideal"
	case PolicyFullSwap:
		return "fullswap"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// MarshalJSON renders the policy as its name.
func (p Policy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON parses a policy from its name.
func (p *Policy) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"baseline"`:
		*p = PolicyBaseline
	case `"vt"`:
		*p = PolicyVT
	case `"ideal"`:
		*p = PolicyIdeal
	case `"fullswap"`:
		*p = PolicyFullSwap
	default:
		return fmt.Errorf("config: unknown policy %s", data)
	}
	return nil
}

// MarshalJSON renders the scheduler kind as its name.
func (k SchedulerKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a scheduler kind from its name.
func (k *SchedulerKind) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"gto"`:
		*k = SchedGTO
	case `"lrr"`:
		*k = SchedLRR
	case `"two-level"`:
		*k = SchedTwoLevel
	default:
		return fmt.Errorf("config: unknown scheduler %s", data)
	}
	return nil
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Sets     int // number of sets
	Ways     int // associativity
	LineSize int // bytes; must be a power of two
	Latency  int // hit latency in core cycles
	MSHRs    int // outstanding distinct misses
}

// SizeBytes returns the total data capacity of the cache.
func (c CacheConfig) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// ActivationPolicy selects which ready CTA the Virtual Thread controller
// activates into freed warp slots.
type ActivationPolicy int

const (
	// ActOldest activates the longest-resident ready CTA (FIFO age).
	ActOldest ActivationPolicy = iota
	// ActNewest activates the most recently assigned ready CTA (LIFO).
	ActNewest
)

// String names the activation policy.
func (a ActivationPolicy) String() string {
	switch a {
	case ActOldest:
		return "oldest"
	case ActNewest:
		return "newest"
	default:
		return fmt.Sprintf("act(%d)", int(a))
	}
}

// VTConfig holds the Virtual Thread architecture parameters.
type VTConfig struct {
	// MaxVirtualCTAsPerSM caps resident CTAs per SM. Zero means
	// "capacity-bound only" (no explicit cap).
	MaxVirtualCTAsPerSM int
	// SwapOutLatency is the core cycles to drain and save the
	// scheduling state (PC + SIMT stack + scoreboard) of one CTA.
	SwapOutLatency int
	// SwapInLatency is the core cycles to restore a CTA's scheduling
	// state into freed warp slots.
	SwapInLatency int
	// ContextBufferBytes is the per-SM SRAM budget that holds the
	// scheduling state of inactive CTAs. Admission of a virtual CTA is
	// denied when its context would not fit.
	ContextBufferBytes int
	// MinResidencyCycles prevents thrashing: an activated CTA is not
	// eligible to swap out again until this many cycles have elapsed.
	MinResidencyCycles int
	// Activation selects which ready CTA takes freed slots.
	Activation ActivationPolicy
	// TriggerFraction is the fraction of a CTA's unfinished warps that
	// must be blocked on long-latency memory (or barrier-parked behind
	// such warps) to trigger a swap-out. Zero means the paper default
	// of 1.0 — every warp stalled.
	TriggerFraction float64
	// SwapPorts is the number of concurrent swap operations per SM
	// (context buffer ports). Zero means 1.
	SwapPorts int
}

// EffTriggerFraction returns the swap trigger threshold with the default
// applied.
func (v VTConfig) EffTriggerFraction() float64 {
	if v.TriggerFraction <= 0 || v.TriggerFraction > 1 {
		return 1.0
	}
	return v.TriggerFraction
}

// EffSwapPorts returns the port count with the default applied.
func (v VTConfig) EffSwapPorts() int {
	if v.SwapPorts <= 0 {
		return 1
	}
	return v.SwapPorts
}

// GPUConfig is the full hardware description of the simulated GPU.
type GPUConfig struct {
	Name     string
	NumSMs   int
	WarpSize int // threads per warp; at most 64

	// Scheduling limits (per SM).
	MaxCTAsPerSM    int
	MaxWarpsPerSM   int
	MaxThreadsPerSM int
	NumSchedulers   int // warp schedulers per SM; each issues ≤1 instr/cycle
	Scheduler       SchedulerKind

	// Capacity limits (per SM).
	RegFileSize    int // 32-bit registers per SM (e.g. 32768 = 128 KB)
	SharedMemPerSM int // bytes
	RegAllocUnit   int // registers are allocated per warp in multiples of this
	SMemAllocUnit  int // shared memory allocated per CTA in multiples of this
	// RegFileBanks enables the register-file bank-conflict model: an
	// instruction whose source registers collide in a bank stalls its
	// scheduler one extra cycle per collision (a single-ported banked
	// file without an operand collector). Zero disables the model.
	RegFileBanks int

	// Execution latencies (core cycles).
	ALULatency      int // simple integer/fp pipeline depth
	SFULatency      int // special function unit latency
	SFUInitInterval int // cycles between SFU issues
	SMemLatency     int // shared memory access latency

	// Memory system.
	L1D               CacheConfig
	L2                CacheConfig // per memory partition slice
	NumMemPartitions  int
	InterconnectDelay int // SM <-> partition one-way core cycles
	DRAMLatency       int // partition -> DRAM round trip, excluding queueing
	DRAMServiceCycles int // core cycles a partition is busy per 128 B burst
	// DRAMBanks enables the bank/row-buffer model: each partition has
	// this many banks with open-row tracking; a row miss adds
	// DRAMRowPenalty cycles of bank occupancy and response latency.
	// Zero selects the flat single-cursor channel model.
	DRAMBanks      int
	DRAMRowBytes   int // open-row size per bank (a power of two; unused when DRAMBanks is 0)
	DRAMRowPenalty int // extra cycles for precharge+activate on a row miss
	LSUQueueDepth  int // in-flight coalesced transactions the LSU buffers

	// CTA scheduling architecture.
	Policy Policy
	VT     VTConfig

	// MaxCycles aborts a simulation that fails to converge. Zero means
	// the engine default.
	MaxCycles int64
}

// GTX480 returns a Fermi-class configuration mirroring the paper's
// simulated hardware (GPGPU-Sim GTX 480 profile).
func GTX480() GPUConfig {
	return GPUConfig{
		Name:     "gtx480",
		NumSMs:   15,
		WarpSize: 32,

		MaxCTAsPerSM:    8,
		MaxWarpsPerSM:   48,
		MaxThreadsPerSM: 1536,
		NumSchedulers:   2,
		Scheduler:       SchedGTO,

		RegFileSize:    32768, // 128 KB
		SharedMemPerSM: 48 * 1024,
		RegAllocUnit:   64, // per-warp allocation granularity (regs)
		SMemAllocUnit:  128,

		ALULatency:      10,
		SFULatency:      20,
		SFUInitInterval: 4,
		SMemLatency:     24,

		L1D: CacheConfig{
			Sets:     32,
			Ways:     4,
			LineSize: 128, // 16 KB
			Latency:  28,
			MSHRs:    64,
		},
		L2: CacheConfig{
			Sets:     128,
			Ways:     8,
			LineSize: 128, // 128 KB per partition slice (768 KB total / 6)
			Latency:  120,
			MSHRs:    64,
		},
		NumMemPartitions:  6,
		InterconnectDelay: 12,
		DRAMLatency:       220,
		DRAMServiceCycles: 4,
		DRAMBanks:         8,
		DRAMRowBytes:      2048,
		DRAMRowPenalty:    22,
		LSUQueueDepth:     16,

		Policy: PolicyBaseline,
		VT:     DefaultVT(),
	}
}

// KeplerLike returns a Kepler-class (GTX Titan generation) configuration:
// the scheduling limits are doubled relative to Fermi (16 CTA slots, 64
// warp slots, 2048 threads) and the register file is 256 KB, so the
// scheduling limit binds less often — the sensitivity the paper's
// discussion of newer hardware anticipates.
func KeplerLike() GPUConfig {
	c := GTX480()
	c.Name = "kepler"
	c.NumSMs = 13
	c.MaxCTAsPerSM = 16
	c.MaxWarpsPerSM = 64
	c.MaxThreadsPerSM = 2048
	c.NumSchedulers = 4
	c.RegFileSize = 65536 // 256 KB
	c.L1D.Sets = 32       // 16 KB unchanged
	c.L2.Sets = 256       // 1.5 MB total across 6 partitions
	return c
}

// DefaultVT returns the paper-default Virtual Thread parameters: cheap
// scheduling-state-only swaps and a 2x-scheduling-limit context budget.
func DefaultVT() VTConfig {
	return VTConfig{
		MaxVirtualCTAsPerSM: 0, // capacity bound
		SwapOutLatency:      8,
		SwapInLatency:       8,
		ContextBufferBytes:  16 * 1024,
		MinResidencyCycles:  32,
	}
}

// WithPolicy returns a copy of the configuration with the CTA scheduling
// policy replaced. PolicyIdeal rewrites the scheduling limits so that only
// capacity binds.
func (c GPUConfig) WithPolicy(p Policy) GPUConfig {
	c.Policy = p
	return c
}

// EffectiveSchedulingLimits returns the CTA/warp/thread limits the warp
// slot hardware enforces under the configured policy. PolicyIdeal reports
// limits large enough that capacity always binds first.
func (c GPUConfig) EffectiveSchedulingLimits() (ctas, warps, threads int) {
	if c.Policy == PolicyIdeal {
		// Any CTA needs >=1 register per thread and >=1 thread, so
		// the register file size bounds resident threads; never fall
		// below the baseline limits.
		threads = c.RegFileSize
		if threads < c.MaxThreadsPerSM {
			threads = c.MaxThreadsPerSM
		}
		warps = (threads + c.WarpSize - 1) / c.WarpSize
		if warps < c.MaxWarpsPerSM {
			warps = c.MaxWarpsPerSM
		}
		ctas = warps
		if ctas < c.MaxCTAsPerSM {
			ctas = c.MaxCTAsPerSM
		}
		return ctas, warps, threads
	}
	return c.MaxCTAsPerSM, c.MaxWarpsPerSM, c.MaxThreadsPerSM
}

// Validate reports configuration errors that would make a simulation
// meaningless (zero-sized structures, non-power-of-two lines, limits that
// cannot admit a single warp). Every violation is collected — the result
// joins all of them with errors.Join — so one Validate call shows the
// full repair list instead of one problem per round trip.
func (c GPUConfig) Validate() error {
	var errs []error
	bad := func(cond bool, msg string) {
		if cond {
			errs = append(errs, errors.New("config: "+msg))
		}
	}
	bad(c.NumSMs <= 0, "NumSMs must be positive")
	bad(c.WarpSize <= 0 || c.WarpSize > 64, "WarpSize must be in 1..64")
	bad(c.MaxCTAsPerSM <= 0 || c.MaxWarpsPerSM <= 0 || c.MaxThreadsPerSM <= 0,
		"scheduling limits must be positive")
	bad(c.WarpSize > 0 && c.MaxThreadsPerSM > 0 && c.MaxThreadsPerSM < c.WarpSize,
		"MaxThreadsPerSM smaller than one warp")
	bad(c.NumSchedulers <= 0, "NumSchedulers must be positive")
	bad(c.RegFileSize <= 0 || c.SharedMemPerSM < 0, "capacity limits must be positive")
	bad(c.RegAllocUnit <= 0 || c.SMemAllocUnit <= 0, "allocation units must be positive")
	bad(c.ALULatency <= 0 || c.SFULatency <= 0 || c.SMemLatency <= 0,
		"execution latencies must be positive")
	bad(c.NumMemPartitions <= 0, "NumMemPartitions must be positive")
	bad(c.DRAMServiceCycles <= 0 || c.DRAMLatency <= 0, "DRAM timing must be positive")
	bad(c.DRAMBanks < 0 || c.DRAMRowPenalty < 0,
		"DRAM bank model parameters must be non-negative")
	bad(c.DRAMBanks > 0 && (c.DRAMRowBytes <= 0 || c.DRAMRowBytes&(c.DRAMRowBytes-1) != 0),
		"DRAMRowBytes must be a positive power of two when DRAMBanks > 0")
	bad(c.RegFileBanks < 0 || c.RegFileBanks > 64, "RegFileBanks must be in 0..64")
	bad(c.LSUQueueDepth <= 0, "LSUQueueDepth must be positive")
	bad(c.MaxCycles < 0, "MaxCycles must be non-negative")
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1D", c.L1D}, {"L2", c.L2}} {
		if cc.c.Sets <= 0 || cc.c.Ways <= 0 || cc.c.MSHRs <= 0 {
			errs = append(errs, fmt.Errorf("config: %s geometry must be positive", cc.name))
		}
		if cc.c.LineSize <= 0 || cc.c.LineSize&(cc.c.LineSize-1) != 0 {
			errs = append(errs, fmt.Errorf("config: %s line size must be a power of two", cc.name))
		}
	}
	if c.Policy == PolicyVT || c.Policy == PolicyFullSwap {
		bad(c.VT.SwapOutLatency < 0 || c.VT.SwapInLatency < 0,
			"VT swap latencies must be non-negative")
		bad(c.VT.ContextBufferBytes <= 0, "VT context buffer must be positive")
	}
	return errors.Join(errs...)
}
