package harness

import (
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/resultstore"
)

// Prefix-forked sweeps. Many sweep experiments run the same (kernel,
// grid) under configs that differ only in a parameter the simulation
// does not consume until deep into the run — the VT swap latencies, which
// matter only once the first swap happens. Those jobs share a common
// prefix: every cycle up to the first swap is bit-identical across the
// sweep. With Params.Checkpoint set, RunJobs groups the jobs of a plan —
// every selected experiment's — by their *prefix fingerprint* (the
// ordinary content fingerprint with the divergeable parameters
// neutralized; see gpu.ForkNeutralizedConfig), runs the first member of
// each group as the *donor* — a full simulation
// that captures checkpoints while the no-swaps-yet guard holds — and
// starts every other member from the donor's last checkpoint instead of
// from cycle zero. Forked results are bit-identical to full runs (see
// internal/gpu/checkpoint_test.go and harness fork tests), so the memo
// and disk caches treat them exactly like ordinary results.
//
// Checkpoints persist in the disk cache (CacheDir) keyed by the prefix
// fingerprint, so a re-invocation — including a re-run after a crash —
// forks across processes without re-simulating the prefix.

// checkpointEvery is the donor capture cadence. Small enough that even
// heavily diluted sweep runs capture a prefix before the first swap; the
// gap widens automatically as the run grows (see
// gpu.Options.CheckpointEvery).
const checkpointEvery = 64

// forkGuard is the capture guard for swap-latency sweeps: a checkpoint
// is variant-independent only while no swap has consumed the latencies.
// The zero core.Stats of non-VT policies keeps the guard open, which is
// correct: baseline runs never consume the neutralized parameters.
func forkGuard(cycle int64, vt core.Stats) bool {
	return vt.SwapsOut == 0 && vt.SwapsIn == 0
}

// forkSpec threads checkpoint behavior through a supervised execution:
// capture (donor) or resume (fork). Nil means an ordinary run.
type forkSpec struct {
	// Donor side: capture checkpoints during the run.
	capture bool
	// captured is the last checkpoint the successful attempt produced.
	captured *gpu.Checkpoint

	// Fork side: resume from this checkpoint instead of cycle zero.
	ck *gpu.Checkpoint
	// forkedFrom labels the journal entry: "<prefix-key>@<cycle>".
	forkedFrom string
}

// ckEntry coalesces one prefix group's checkpoint production: the first
// job to arrive becomes the donor (or loads the checkpoint from disk);
// the rest wait and fork.
type ckEntry struct {
	once sync.Once
	ck   *gpu.Checkpoint
}

func (s *Sweep) ckEntryFor(prefixFP string) *ckEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cks[prefixFP]
	if !ok {
		e = &ckEntry{}
		s.cks[prefixFP] = e
	}
	return e
}

// forkPlan annotates jobs that belong to a prefix group worth forking:
// at least two members with distinct full fingerprints (identical jobs
// already coalesce in the memo cache) sharing a neutralized fingerprint.
func forkPlan(p Params, jobs []Job) []Job {
	if !p.Checkpoint || p.Sampling.Enabled() {
		return jobs
	}
	prefixes := make([]string, len(jobs))
	members := map[string]map[string]bool{} // prefixFP -> set of full FPs
	for i, j := range jobs {
		cfg := j.ConfigFor(p)
		fp, err := p.Sweep.fingerprint(j.Workload, p.Scale, p.Dilute, &cfg, gpu.SamplingOptions{})
		if err != nil {
			continue
		}
		ncfg := gpu.ForkNeutralizedConfig(cfg)
		pfp, err := p.Sweep.fingerprint(j.Workload, p.Scale, p.Dilute, &ncfg, gpu.SamplingOptions{})
		if err != nil {
			continue
		}
		prefixes[i] = pfp
		if members[pfp] == nil {
			members[pfp] = map[string]bool{}
		}
		members[pfp][fp] = true
	}
	out := make([]Job, len(jobs))
	copy(out, jobs)
	for i := range out {
		if pfp := prefixes[i]; pfp != "" && len(members[pfp]) >= 2 {
			out[i].PrefixFP = pfp
		}
	}
	return out
}

// forkExecute supervises one fork-eligible job: the group's first
// arrival becomes the donor (full run, capturing), later arrivals resume
// from the donor's checkpoint, or run in full when it left none. The
// Outcome's Work says which: a capture, a hit with the prefix cycles the
// job did not simulate, or a miss.
func forkExecute(p Params, j Job, cfg config.GPUConfig, fp string) (Outcome, error) {
	s := p.Sweep
	ce := s.ckEntryFor(j.PrefixFP)
	var out Outcome
	var err error
	donor := false
	ce.once.Do(func() {
		st, _ := s.store(p) // resolve has vetted p's directories
		if st != nil {
			if env := s.loadEnvelope(p, st, resultstore.KindCheckpoint, "fork.ckload", j, j.PrefixFP, CacheKey(j.PrefixFP)); env != nil {
				ce.ck = env.Checkpoint
				return
			}
		}
		donor = true
		spec := &forkSpec{capture: true}
		out, err = supervise(p, j, cfg, fp, spec)
		ce.ck = spec.captured
		if ce.ck != nil {
			out.Work.CheckpointsCaptured++
			if st != nil {
				sid := s.Trace.Begin(p.span, "fork.ckstore", j.Workload, j.Variant)
				diskStoreCheckpoint(p, st, j.PrefixFP, ce.ck)
				s.Trace.End(sid)
			}
		}
	})
	if donor {
		return out, err
	}
	if ce.ck == nil {
		// The donor produced no usable checkpoint (guard failed before the
		// first capture, or the donor itself failed): fall back to a full
		// simulation.
		out, err = supervise(p, j, cfg, fp, nil)
		out.Work.CheckpointMisses++
		return out, err
	}
	out, err = supervise(p, j, cfg, fp, &forkSpec{
		ck:         ce.ck,
		forkedFrom: fmt.Sprintf("%s@%d", CacheKey(j.PrefixFP)[:12], ce.ck.Cycle),
	})
	out.Work.CheckpointHits++
	out.Work.PrefixCyclesSaved += ce.ck.Cycle
	return out, err
}

// diskStoreCheckpoint persists a checkpoint for the prefix fingerprint
// as one store transaction. Best-effort beyond the bounded transient
// retry, like result persistence.
func diskStoreCheckpoint(p Params, st *resultstore.Store, prefixFP string, ck *gpu.Checkpoint) {
	tx := st.Begin()
	p.Sweep.putEnvelope(tx, resultstore.KindCheckpoint, envelope{Fingerprint: prefixFP, Checkpoint: ck})
	p.commitBestEffort(tx)
}
