package testsupport

// Storage-layer fault injection for internal/resultstore, through its
// Hook seam. A StoreSpec names one filesystem operation of the result
// store (by class and ordinal) and what goes wrong there: the process
// dies before or after the syscall, the write lands torn or
// bit-flipped, or the operation fails once with a transient I/O error.
// Store faults are deterministic by construction — a stateful hook per
// store instance with its own fired flag, no clocks, no randomness — so
// the commit protocol's all-or-nothing claim can be proven by a
// kill-point sweep: enumerate every operation of a commit with
// NewStoreRecorder, then re-run the commit once per operation with a
// crash injected exactly there. The hook's method set is
// resultstore.Hook's, spelled in standard types, so this package does
// not import resultstore (whose own tests import this package).

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// StoreOp classifies one filesystem operation of the result store, as
// the store names it to Hook.Apply and as test labels spell it.
type StoreOp string

const (
	// StoreOpAny matches every operation class (kill-point sweeps).
	StoreOpAny StoreOp = "any"
	// StoreOpWrite is an appended write: a payload to a side's pack, a
	// write-ahead-log record, an index or journal line.
	StoreOpWrite StoreOp = "write"
	// StoreOpRead is a read: a pack range (object loads, read-back
	// verification, replica copies), the WAL record read back, an append
	// target audited whole, a journal's header checked on open.
	StoreOpRead StoreOp = "read"
	// StoreOpRename is a rename: a journal of another sweep rotated
	// aside. The store does not retry it.
	StoreOpRename StoreOp = "rename"
)

// StoreFaultKind selects what the injected storage fault does.
type StoreFaultKind int

const (
	// StoreCrash dies (panics with *StoreKill) before the operation runs:
	// its bytes never reach the disk.
	StoreCrash StoreFaultKind = iota
	// StoreCrashAfter dies immediately after the operation completes: a
	// write that reached the file the instant before death.
	StoreCrashAfter
	// StoreTruncate writes only the first half of the payload and then
	// dies: a torn write.
	StoreTruncate
	// StoreBitFlip silently flips one bit of the payload and continues:
	// at-rest corruption an end-to-end checksum must catch.
	StoreBitFlip
	// StoreEIO fails the operation once with ErrInjectedIO and continues;
	// the retried operation succeeds, modelling a transient I/O error.
	StoreEIO
	// StoreStall holds the operation — a disk that stops answering — until
	// the test calls Release; Stalled is closed once it is held. Other
	// operations pass through the hook meanwhile, which is what lets a
	// test show who does and who does not wait behind a stuck commit.
	StoreStall
)

// String names the kind as test labels spell it.
func (k StoreFaultKind) String() string {
	switch k {
	case StoreCrash:
		return "crash"
	case StoreCrashAfter:
		return "crash-after"
	case StoreTruncate:
		return "truncate"
	case StoreBitFlip:
		return "bit-flip"
	case StoreEIO:
		return "eio-once"
	case StoreStall:
		return "stall"
	default:
		return fmt.Sprintf("storekind(%d)", int(k))
	}
}

// ErrInjectedIO is the transient error StoreEIO faults return. It wraps
// syscall.EIO, so the result store classifies it as retryable
// (resultstore.IsTransient) and the harness's bounded
// retry-with-backoff absorbs it.
var ErrInjectedIO = fmt.Errorf("testsupport: injected transient I/O error: %w", syscall.EIO)

// StoreKill is the panic value crash-kind store faults raise: the
// simulated process death. Kill-point tests recover it, abandon the
// store instance, and reopen the directories to exercise recovery —
// exactly what a restarted process would see.
type StoreKill struct {
	Op   StoreOp
	Path string
	Seq  int
}

func (k *StoreKill) Error() string {
	return fmt.Sprintf("testsupport: simulated process death at store op %d (%s %s)", k.Seq, k.Op, k.Path)
}

// StoreSpec is one deterministic storage fault: fire on the N-th
// (0-based) operation matching Op, with the given Kind.
type StoreSpec struct {
	Op   StoreOp
	N    int
	Kind StoreFaultKind
}

// StoreHook compiles the spec into a stateful hook for one store
// instance. Each hook carries its own operation counter and fired flag.
func (sp *StoreSpec) StoreHook() *StoreHook {
	return &StoreHook{spec: *sp, stalled: make(chan struct{}), release: make(chan struct{})}
}

// StoreHook observes every filesystem operation of a result store and
// injects at most one fault; it implements resultstore.Hook. Safe for
// concurrent use.
type StoreHook struct {
	mu     sync.Mutex
	spec   StoreSpec
	match  int
	fired  bool
	kill   *StoreKill // set once a crash kind fired: the process is dead
	record bool
	trace  []string
	syncs  atomic.Int64
	// StoreStall: stalled closes when the operation is held, release
	// lets it go.
	stalled chan struct{}
	release chan struct{}
}

// Stalled is closed once a StoreStall fault holds its operation.
func (h *StoreHook) Stalled() <-chan struct{} { return h.stalled }

// Release lets the operation a StoreStall fault holds proceed. Call it
// exactly once.
func (h *StoreHook) Release() { close(h.release) }

// NewStoreRecorder returns a hook that injects nothing and records the
// operation trace, so kill-point sweeps can first enumerate the
// operations of a commit sequence.
func NewStoreRecorder() *StoreHook {
	return &StoreHook{spec: StoreSpec{N: -1}, record: true}
}

// PassThrough returns a hook that injects nothing and records nothing
// but its fsyncs: the hook a test store opens with when the test names
// no fault, so that it skips the fsync syscall (see Sync).
func PassThrough() *StoreHook {
	return &StoreHook{spec: StoreSpec{N: -1}}
}

// Trace returns the recorded operations as "op path" lines.
func (h *StoreHook) Trace() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.trace...)
}

// Fired reports whether the fault has triggered.
func (h *StoreHook) Fired() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fired
}

// Sync records an fsync of fh and skips the syscall (resultstore.Hook).
// Every crash a test drives through a hook is simulated inside the
// process, where the page cache survives it, so no test can observe a
// real fsync; skipping it keeps test stores off the disk's latency. An
// fsync is not an operation: it is neither counted as one, matched nor
// traced, so kill points never move with how the store groups its
// fsyncs.
func (h *StoreHook) Sync(*os.File) error {
	h.syncs.Add(1)
	return nil
}

// Syncs returns how many fsyncs the store has asked the hook for.
func (h *StoreHook) Syncs() int64 { return h.syncs.Load() }

// Apply is called by the result store before each filesystem operation
// with the op class, target path, and payload (writes only; nil for
// reads). It returns the payload the operation should use, the
// *StoreKill the caller must panic with immediately after the operation
// completes (nil: live on), and an error that fails the operation.
// Crash-before faults panic with *StoreKill from inside Apply, so the
// operation never happens. Once a crash kind has fired the process is
// dead: every later operation, from any goroutine, panics with the same
// *StoreKill before touching the disk, so commits running concurrently
// with the one that died cannot outlive it.
func (h *StoreHook) Apply(opName, path string, data []byte) (out []byte, dieAfter any, err error) {
	op := StoreOp(opName)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.kill != nil {
		panic(h.kill)
	}
	if h.record {
		h.trace = append(h.trace, fmt.Sprintf("%s %s", op, path))
	}
	out = data
	if h.fired || h.spec.N < 0 {
		return out, nil, nil
	}
	if h.spec.Op != StoreOpAny && h.spec.Op != op {
		return out, nil, nil
	}
	seq := h.match
	h.match++
	if seq != h.spec.N {
		return out, nil, nil
	}
	h.fired = true
	kind := h.spec.Kind
	if data == nil && (kind == StoreTruncate || kind == StoreBitFlip) {
		// Payload faults degrade to a crash on payload-less operations.
		kind = StoreCrash
	}
	if kind == StoreCrash || kind == StoreCrashAfter || kind == StoreTruncate {
		h.kill = &StoreKill{Op: op, Path: path, Seq: seq}
	}
	switch kind {
	case StoreCrash:
		panic(h.kill)
	case StoreCrashAfter:
		return out, h.kill, nil
	case StoreTruncate:
		return out[:len(out)/2], h.kill, nil
	case StoreBitFlip:
		flipped := append([]byte(nil), out...)
		if len(flipped) > 0 {
			flipped[len(flipped)/2] ^= 0x10
		}
		return flipped, nil, nil
	case StoreEIO:
		return out, nil, ErrInjectedIO
	case StoreStall:
		close(h.stalled)
		h.mu.Unlock() // everyone else's operations keep flowing
		<-h.release
		h.mu.Lock()
	}
	return out, nil, nil
}
