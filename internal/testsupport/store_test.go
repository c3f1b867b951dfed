package testsupport

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// applyResult is everything one Apply call can do to its caller.
type applyResult struct {
	out      []byte
	dieAfter bool       // the call returned a value to die of after the operation
	after    *StoreKill // ... and this is it
	err      error
	kill     *StoreKill // the call panicked with this
}

func apply(h *StoreHook, op StoreOp, path string, data []byte) (r applyResult) {
	defer func() {
		if v := recover(); v != nil {
			k, ok := v.(*StoreKill)
			if !ok {
				panic(v)
			}
			r.kill = k
		}
	}()
	var dieAfter any
	r.out, dieAfter, r.err = h.Apply(string(op), path, data)
	r.dieAfter = dieAfter != nil
	r.after, _ = dieAfter.(*StoreKill)
	return r
}

// TestStoreHookFiresAtNthMatchingOp drives a fixed operation sequence
// through one hook per fault kind and checks that the fault lands on
// exactly the N-th operation of the spec's class — never on another
// class, never earlier, never twice.
func TestStoreHookFiresAtNthMatchingOp(t *testing.T) {
	payload := []byte("0123456789abcdef")
	seq := []StoreOp{StoreOpWrite, StoreOpRead, StoreOpWrite, StoreOpRead, StoreOpWrite, StoreOpRead, StoreOpWrite}
	for _, tc := range []struct {
		name string
		spec StoreSpec
		at   int // index into seq where the fault must land
		// What the faulted call itself does.
		panics, dieAfter bool
		err              error
		out              []byte
		dead             bool // every later op panics too
	}{
		{"crash", StoreSpec{StoreOpWrite, 1, StoreCrash}, 2, true, false, nil, nil, true},
		{"crash-after", StoreSpec{StoreOpWrite, 2, StoreCrashAfter}, 4, false, true, nil, payload, true},
		{"truncate", StoreSpec{StoreOpWrite, 0, StoreTruncate}, 0, false, true, nil, payload[:8], true},
		{"bit-flip", StoreSpec{StoreOpWrite, 3, StoreBitFlip}, 6, false, false, nil,
			append(append([]byte(nil), payload[:8]...), append([]byte{payload[8] ^ 0x10}, payload[9:]...)...), false},
		{"eio-once", StoreSpec{StoreOpWrite, 1, StoreEIO}, 2, false, false, ErrInjectedIO, payload, false},
		{"any-class", StoreSpec{StoreOpAny, 3, StoreCrash}, 3, true, false, nil, nil, true},
		{"crash-after-read", StoreSpec{StoreOpRead, 1, StoreCrashAfter}, 3, false, true, nil, nil, true},
		// Payload faults on a payload-less operation degrade to a crash.
		{"truncate-read", StoreSpec{StoreOpRead, 2, StoreTruncate}, 5, true, false, nil, nil, true},
		{"bit-flip-read", StoreSpec{StoreOpRead, 0, StoreBitFlip}, 1, true, false, nil, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.spec.StoreHook()
			for i, op := range seq {
				var data []byte
				if op == StoreOpWrite {
					data = payload
				}
				fired := h.Fired()
				r := apply(h, op, "/store/f", data)
				switch {
				case i < tc.at:
					if fired || h.Fired() || r.kill != nil || r.dieAfter || r.err != nil || !bytes.Equal(r.out, data) {
						t.Fatalf("op %d (%s) before the fault point was disturbed: %+v", i, op, r)
					}
				case i == tc.at:
					if !h.Fired() {
						t.Fatalf("fault did not fire at op %d (%s)", i, op)
					}
					if (r.kill != nil) != tc.panics || r.dieAfter != tc.dieAfter || !errors.Is(r.err, tc.err) {
						t.Fatalf("faulted op: %+v, want panics=%v dieAfter=%v err=%v", r, tc.panics, tc.dieAfter, tc.err)
					}
					if !tc.panics && !bytes.Equal(r.out, tc.out) {
						t.Fatalf("faulted op payload %q, want %q", r.out, tc.out)
					}
					if r.kill != nil && (r.kill.Op != op || r.kill.Path != "/store/f" || r.kill.Seq != tc.spec.N) {
						t.Fatalf("kill value %+v, want op %s seq %d", r.kill, op, tc.spec.N)
					}
					// The value to die of after the operation names it too.
					if tc.dieAfter && (r.after == nil || r.after.Op != op || r.after.Path != "/store/f" || r.after.Seq != tc.spec.N) {
						t.Fatalf("die-after value %+v, want a *StoreKill for op %s seq %d", r.after, op, tc.spec.N)
					}
					// An unrecovered kill prints its Error text: it names the
					// operation that died.
					if r.kill != nil {
						msg := r.kill.Error()
						if !strings.HasPrefix(msg, "testsupport: simulated process death at store op ") ||
							!strings.HasSuffix(msg, "("+string(op)+" /store/f)") {
							t.Fatalf("kill error %q does not name the dead %s of /store/f", msg, op)
						}
					}
				case tc.dead:
					if r.kill == nil {
						t.Fatalf("op %d (%s) ran after the process died: %+v", i, op, r)
					}
				default:
					if r.kill != nil || r.dieAfter || r.err != nil || !bytes.Equal(r.out, data) {
						t.Fatalf("op %d (%s) after a one-shot fault was disturbed: %+v", i, op, r)
					}
				}
			}
		})
	}
}

// TestStoreHookCrashLatches: once a crash kind has fired, the process is
// dead for every goroutine — which is what the store's fsync rounds and
// the write-behind pipeline rely on to stop commits running beside the
// one that died. Run under -race.
func TestStoreHookCrashLatches(t *testing.T) {
	for _, kind := range []StoreFaultKind{StoreCrash, StoreCrashAfter, StoreTruncate} {
		t.Run(kind.String(), func(t *testing.T) {
			const goroutines, each = 8, 50
			h := (&StoreSpec{Op: StoreOpWrite, N: 40, Kind: kind}).StoreHook()
			var wg sync.WaitGroup
			ran, refused := make([]int, goroutines), make([]int, goroutines)
			kills := make([]*StoreKill, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						r := apply(h, StoreOpWrite, "/store/f", []byte("payload"))
						switch {
						case r.kill != nil:
							refused[g]++
							kills[g] = r.kill
						case r.dieAfter:
							ran[g]++ // the faulted op itself completes, then dies
						case refused[g] > 0:
							t.Errorf("goroutine %d: an op ran after one was refused", g)
						default:
							ran[g]++
						}
					}
				}()
			}
			wg.Wait()
			totalRan, totalRefused := 0, 0
			var first *StoreKill
			for g := range ran {
				totalRan += ran[g]
				totalRefused += refused[g]
				if kills[g] == nil {
					continue
				}
				if first == nil {
					first = kills[g]
				}
				if kills[g] != first {
					t.Fatalf("goroutine %d died of %p, another of %p: want one kill value", g, kills[g], first)
				}
			}
			// Ops 0..39 pass; op 40 is the fault (it completes for the
			// die-after kinds); everything later is refused.
			wantRan := 40
			if kind != StoreCrash {
				wantRan = 41
			}
			if totalRan != wantRan || totalRan+totalRefused != goroutines*each {
				t.Fatalf("%d ops ran and %d were refused, want %d and %d", totalRan, totalRefused, wantRan, goroutines*each-wantRan)
			}
			if first == nil || first.Seq != 40 {
				t.Fatalf("kill value %+v, want seq 40", first)
			}
		})
	}
}

// TestStoreStall: the stalled operation is held until Release while
// other goroutines' operations pass through the same hook.
func TestStoreStall(t *testing.T) {
	h := (&StoreSpec{Op: StoreOpWrite, N: 0, Kind: StoreStall}).StoreHook()
	select {
	case <-h.Stalled():
		t.Fatal("Stalled closed before any operation")
	default:
	}
	held := make(chan applyResult, 1)
	go func() { held <- apply(h, StoreOpWrite, "/store/slow", []byte("x")) }()
	<-h.Stalled()
	if !h.Fired() {
		t.Fatal("stall holds an operation but Fired is false")
	}
	// Everyone else keeps flowing while the operation is held.
	for i := 0; i < 3; i++ {
		if r := apply(h, StoreOpWrite, "/store/other", []byte("y")); r.kill != nil || r.err != nil || string(r.out) != "y" {
			t.Fatalf("an operation beside the stalled one was disturbed: %+v", r)
		}
	}
	select {
	case r := <-held:
		t.Fatalf("stalled operation returned before Release: %+v", r)
	case <-time.After(10 * time.Millisecond):
	}
	h.Release()
	if r := <-held; r.kill != nil || r.dieAfter || r.err != nil || string(r.out) != "x" {
		t.Fatalf("released operation was damaged: %+v", r)
	}
}

// TestStoreRecorderTraceFormat pins the "class path" line format the
// kill-point sweeps split with strings.Fields to label their subtests,
// and the labels themselves (opNN-<class>-<kind>).
func TestStoreRecorderTraceFormat(t *testing.T) {
	for kind, want := range map[StoreFaultKind]string{
		StoreCrash: "crash", StoreCrashAfter: "crash-after", StoreTruncate: "truncate",
		StoreBitFlip: "bit-flip", StoreEIO: "eio-once", StoreStall: "stall",
	} {
		if kind.String() != want {
			t.Errorf("kind %d is labelled %q, want %q", int(kind), kind, want)
		}
	}
	h := NewStoreRecorder()
	ops := []struct {
		op   StoreOp
		path string
	}{
		{StoreOpWrite, "/p/objects.pack"},
		{StoreOpWrite, "/p/.vtstore/wal.jsonl"},
		{StoreOpRead, "/p/objects.pack"},
	}
	for _, o := range ops {
		if r := apply(h, o.op, o.path, nil); r.kill != nil || r.dieAfter || r.err != nil {
			t.Fatalf("the recorder injected something: %+v", r)
		}
	}
	if h.Fired() {
		t.Fatal("the recorder reports a fired fault")
	}
	trace := h.Trace()
	if len(trace) != len(ops) {
		t.Fatalf("trace has %d lines for %d ops: %v", len(trace), len(ops), trace)
	}
	for i, want := range []string{"write", "write", "read"} {
		f := strings.Fields(trace[i])
		if len(f) != 2 || f[0] != want || f[1] != ops[i].path {
			t.Fatalf("trace line %d = %q, want %q", i, trace[i], want+" "+ops[i].path)
		}
	}
	// Trace returns a copy: callers may keep it across later operations.
	trace[0] = "clobbered"
	if h.Trace()[0] == "clobbered" {
		t.Fatal("Trace exposes the recorder's own slice")
	}
}

// TestPassThroughRecordsSyncs: the hook a test store opens with when the
// test names no fault passes every operation through untouched and counts
// the fsyncs the store asks for without issuing them, so a fsync neither
// reaches the disk nor moves a kill point (the trace stays empty).
func TestPassThroughRecordsSyncs(t *testing.T) {
	h := PassThrough()
	for n := 0; n < 3; n++ {
		data := []byte("payload")
		if r := apply(h, StoreOpWrite, "/p/objects.pack", data); r.kill != nil || r.dieAfter || r.err != nil || !bytes.Equal(r.out, data) {
			t.Fatalf("the pass-through hook changed write %d: %+v", n, r)
		}
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for n := 0; n < 2; n++ {
		if err := h.Sync(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Syncs(); got != 2 {
		t.Fatalf("Syncs = %d, want 2", got)
	}
	if h.Fired() || len(h.Trace()) != 0 {
		t.Fatalf("the pass-through hook fired (%v) or traced %v", h.Fired(), h.Trace())
	}
}
