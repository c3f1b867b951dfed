package resultstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/faultinject"
)

// fsio funnels every filesystem operation of the store through the
// optional fault hook, so crash drills can die, tear, flip, or fail any
// single write or read the store performs.
type fsio struct {
	hook *faultinject.StoreHook
}

func (f fsio) apply(op faultinject.StoreOp, path string, data []byte) ([]byte, bool, error) {
	if f.hook == nil {
		return data, false, nil
	}
	return f.hook.Apply(op, path, data)
}

// die simulates process death after an operation the hook marked with
// dieAfter: the operation's effect is on disk, nothing later is.
func die(op faultinject.StoreOp, path string) {
	panic(&faultinject.StoreKill{Op: op, Path: path})
}

// syncFanout bounds the fsyncs one round keeps in flight: enough for
// the filesystem journal to merge a batch's files into one commit, few
// enough that a round never parks more threads than a small host has.
const syncFanout = 12

// syncFile is the one fsync call site (a variable so a test can fail
// the fsync of a chosen path; production code never assigns it).
var syncFile = (*os.File).Sync

// syncSet is the durability a protocol step owes: the still-open
// handles of every file appended to since the last round, and the
// directories a file was created in. Nothing in it is durable until
// flush has returned nil; drop closes whatever an abandoned step left
// behind. The fault hook never sees an fsync, so when a set is flushed
// is invisible to the kill-point drills.
type syncSet struct {
	files         []*os.File
	dirs          []string
	syncs, rounds int // fsyncs issued and blocking rounds paid so far
}

// flush pays the set in one round: every handle and directory is
// fsynced and closed concurrently, at most syncFanout at a time.
// Directory fsync stays best-effort (not all platforms support it).
func (ss *syncSet) flush() error {
	nFiles := len(ss.files)
	for _, d := range ss.dirs {
		if fh, err := os.Open(d); err == nil {
			ss.files = append(ss.files, fh)
		}
	}
	fhs := ss.files
	ss.files, ss.dirs = nil, nil
	if len(fhs) == 0 {
		return nil
	}
	ss.syncs += len(fhs)
	ss.rounds++
	errs := make([]error, len(fhs))
	sem := make(chan struct{}, syncFanout)
	var wg sync.WaitGroup
	for i, fh := range fhs {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = errors.Join(syncFile(fh), fh.Close())
			<-sem
		}()
	}
	wg.Wait()
	return errors.Join(errs[:nFiles]...)
}

// drop closes every collected handle without making anything durable.
func (ss *syncSet) drop() {
	for _, fh := range ss.files {
		fh.Close()
	}
	ss.files, ss.dirs = nil, nil
}

// appender appends to one file through a single O_APPEND handle that its
// sync set fsyncs once: a group commit writes its K payloads, or its K
// index or journal lines, and pays one fsync for the file instead of K.
// Every payload and line is still its own hooked write, so a crash drill
// can die between any two of them. A flush closes the handle: a step
// after a round takes a new appender.
type appender struct {
	f    fsio
	ss   *syncSet
	path string
	fh   *os.File // opened by the first write, owned by ss
	end  int64    // the file's size: where the next write lands
	heal bool     // the file's tail is a torn line
}

func (f fsio) appender(ss *syncSet, path string) *appender {
	return &appender{f: f, ss: ss, path: path}
}

// open opens the file and learns its size and whether its tail is torn.
// Creating it is the only way the store adds a directory entry, and the
// directory joins the set: once a side holds its files, a batch creates
// nothing and owes no directory an fsync.
func (a *appender) open() error {
	fh, err := os.OpenFile(a.path, os.O_APPEND|os.O_RDWR, 0)
	if os.IsNotExist(err) {
		fh, err = os.OpenFile(a.path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
		if dir := filepath.Dir(a.path); err == nil && !slices.Contains(a.ss.dirs, dir) {
			a.ss.dirs = append(a.ss.dirs, dir)
		}
	}
	if err != nil {
		return err
	}
	a.ss.files = append(a.ss.files, fh)
	st, err := fh.Stat()
	if err != nil {
		return err
	}
	a.fh, a.end, a.heal = fh, st.Size(), false
	if a.end > 0 {
		tail := make([]byte, 1)
		if _, err := fh.ReadAt(tail, a.end-1); err == nil && tail[0] != '\n' {
			a.heal = true
		}
	}
	return nil
}

// write appends data as one hooked write and returns the offset it
// starts at, or -1 when nothing reached the file. A line (asLine) whose
// file ends in a torn line from a crashed writer is written after a
// healing newline, so one torn line never swallows the next good one.
func (a *appender) write(data []byte, asLine bool) (int64, error) {
	b, dieAfter, err := a.f.apply(faultinject.StoreOpWrite, a.path, data)
	if err != nil {
		return -1, err
	}
	off := int64(-1)
	werr := func() error {
		if a.fh == nil {
			if err := a.open(); err != nil {
				return err
			}
		}
		off = a.end
		if asLine && a.heal {
			b = append([]byte{'\n'}, b...)
			off++
		}
		n, err := a.fh.Write(b)
		a.end += int64(n)
		if err != nil {
			// The tail may now be torn: reopen (and re-inspect it) on retry.
			a.fh = nil
			return err
		}
		a.heal = false
		return nil
	}()
	if dieAfter {
		die(faultinject.StoreOpWrite, a.path)
	}
	return off, werr
}

// line appends one line (newline added here).
func (a *appender) line(line []byte) error {
	_, err := a.write(append(append([]byte(nil), line...), '\n'), true)
	return err
}

// readAt reads size bytes at off of path as one hooked read, retried once
// on error; a range the file does not hold whole fails with io.EOF.
func (f fsio) readAt(path string, off, size int64) (b []byte, err error) {
	err = retryOnce(func() error {
		_, dieAfter, err := f.apply(faultinject.StoreOpRead, path, nil)
		if err != nil {
			return err
		}
		fh, err := os.Open(path)
		if err == nil {
			b = make([]byte, size)
			_, err = fh.ReadAt(b, off)
			fh.Close()
		}
		if dieAfter {
			die(faultinject.StoreOpRead, path)
		}
		return err
	})
	return b, err
}

// readFile reads path whole.
func (f fsio) readFile(path string) ([]byte, error) {
	_, dieAfter, err := f.apply(faultinject.StoreOpRead, path, nil)
	if err != nil {
		return nil, err
	}
	b, rerr := os.ReadFile(path)
	if dieAfter {
		die(faultinject.StoreOpRead, path)
	}
	return b, rerr
}

// retryOnce runs op, retrying a single time on error: enough to absorb
// an injected or real transient I/O fault without hiding persistent
// failures.
func retryOnce(op func() error) error {
	if err := op(); err == nil {
		return nil
	}
	return op()
}

// verify reads back the range a payload was appended at and compares the
// end-to-end checksum with sha; on a mismatch the payload is appended once
// more through a (its handle joins a's set, to be paid by the caller's
// next round) and read back again. It returns the offset of the copy that
// verified. This catches write-path corruption (a flipped bit between
// memory and disk) before the protocol declares the payload durable; the
// bad copy stays behind as dead bytes no index line names.
func (f fsio) verify(a *appender, off int64, data []byte, sha string) (int64, error) {
	for attempt := 0; ; attempt++ {
		got, err := f.readAt(a.path, off, int64(len(data)))
		if err != nil {
			return 0, err
		}
		if sumHex(got) == sha {
			return off, nil
		}
		if attempt == 1 {
			return 0, fmt.Errorf("resultstore: write verification failed for %s at %d", a.path, off)
		}
		if off, err = a.write(data, false); err != nil {
			return 0, err
		}
	}
}
