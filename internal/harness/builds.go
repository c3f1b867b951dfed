package harness

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// A sweep builds each workload once. The evaluation runs one set of
// kernels under many configurations, so most runs a sweep executes repeat
// a workload it has already built; assembling the kernel and generating
// its full-size inputs again for each of them would cost more than many
// diluted runs simulate. The first run of a (workload, scale) builds it;
// every run of it then launches shallow copies of the built launches and
// starts from the built memory image, shared copy-on-write.

// buildKey names one built workload.
type buildKey struct {
	workload string
	scale    int
}

// built is one workload as its sweep built it: the launches and the
// initial memory image, frozen. No run writes either — a kernel is decoded
// when it is built and immutable after — so every run of the workload
// shares them, concurrent runs included.
type built struct {
	mu       sync.Mutex // held while building; a run waits for the build
	done     bool
	launches []*isa.Launch
	image    *mem.Backing
	err      error
}

// build returns the built workload, building it on first use. A build
// that panicked is not done, so the next run of the workload builds
// again.
func (s *Sweep) build(workload string, scale int) *built {
	k := buildKey{workload, scale}
	s.mu.Lock()
	b := s.builds[k]
	if b == nil {
		b = &built{}
		s.builds[k] = b
	}
	s.mu.Unlock()

	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.done {
		launches, init, err := kernels.BuildMix(workload, scale)
		if err == nil {
			b.image = mem.NewBacking()
			init(b.image)
			b.image.Freeze()
		}
		b.launches, b.err, b.done = launches, err, true
	}
	return b
}

// suite returns kernels.Suite(scale), built on the sweep's first request
// for the scale. The static tables read it on every render and never
// write it; one rendered outside any sweep (vtreport's suite table) has a
// nil s and builds its own.
func (s *Sweep) suite(scale int) []kernels.Workload {
	if s == nil {
		return kernels.Suite(scale)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.suites[scale]
	if !ok {
		w = kernels.Suite(scale)
		s.suites[scale] = w
	}
	return w
}

// run returns what one run of the workload launches — its own copy of
// each launch, the grid divided by dilute (at least 8 CTAs) when dilute
// exceeds 1 — and the init that gives the run's memory the built image.
func (b *built) run(dilute int) ([]*isa.Launch, func(*mem.Backing)) {
	launches := make([]*isa.Launch, len(b.launches))
	for i, l := range b.launches {
		c := *l
		if dilute > 1 {
			c.GridDim = isa.Dim1(max(l.GridDim.Size()/dilute, 8))
		}
		launches[i] = &c
	}
	return launches, func(bk *mem.Backing) { bk.Share(b.image) }
}
