// Package testsupport holds what the tests of several packages share and
// no production path calls: a small machine preset, an independent
// reader of Prometheus text exposition, and the result store's fault
// hook (StoreSpec, NewStoreRecorder). Only _test.go files import it; CI
// fails if a command, an example or the vtsim package links it.
package testsupport

import "repro/internal/config"

// Small returns a scaled-down configuration for fast unit and integration
// tests: 2 SMs with Fermi-shaped per-SM limits but tiny caches.
func Small() config.GPUConfig {
	c := config.GTX480()
	c.Name = "small"
	c.NumSMs = 2
	c.L1D.Sets = 8
	c.L2.Sets = 32
	c.NumMemPartitions = 2
	c.MaxCycles = 5_000_000 // fail fast on runaway test kernels
	return c
}
