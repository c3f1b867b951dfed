package resultstore

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/faultinject"
)

// fsio funnels every filesystem operation of the store through the
// optional fault hook, so crash drills can die, tear, flip, or fail any
// single write, rename, or read the store performs.
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
// handles of every file written since the last round and the
// directories renamed into. Nothing in it is durable until flush has
// returned nil; drop closes whatever an abandoned step left behind. The
// fault hook never sees an fsync, so when a set is flushed is invisible
// to the kill-point drills.
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

// writeFile creates (or truncates) path with data and hands the open
// handle to ss: the bytes are durable after the set's next flush.
func (f fsio) writeFile(ss *syncSet, path string, data []byte) error {
	b, dieAfter, err := f.apply(faultinject.StoreOpWrite, path, data)
	if err != nil {
		return err
	}
	werr := func() error {
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		ss.files = append(ss.files, fh)
		_, err = fh.Write(b)
		return err
	}()
	if dieAfter {
		die(faultinject.StoreOpWrite, path)
	}
	return werr
}

// appender appends lines to one file through a single O_APPEND handle
// that its sync set fsyncs once: a group commit writes its K index or
// journal lines and pays one fsync for the file instead of K. Every line
// is still its own hooked write, so a crash drill can die between any
// two of them.
type appender struct {
	f    fsio
	ss   *syncSet
	path string
	fh   *os.File // opened by the first write, owned by ss
	heal bool     // the file's tail is a torn line: start with a newline
}

func (f fsio) appender(ss *syncSet, path string) *appender {
	return &appender{f: f, ss: ss, path: path}
}

// write appends one line (newline added here), creating the file if
// needed. If the file's current tail is not newline-terminated — a torn
// append from a crashed writer — the line is written after a healing
// newline, so one torn line never swallows the next good one.
func (a *appender) write(line []byte) error {
	data := append(append([]byte(nil), line...), '\n')
	b, dieAfter, err := a.f.apply(faultinject.StoreOpWrite, a.path, data)
	if err != nil {
		return err
	}
	werr := func() error {
		if a.fh == nil {
			fh, err := os.OpenFile(a.path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
			if err != nil {
				return err
			}
			a.fh = fh
			a.ss.files = append(a.ss.files, fh)
			if st, err := fh.Stat(); err == nil && st.Size() > 0 {
				tail := make([]byte, 1)
				if _, err := fh.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
					a.heal = true
				}
			}
		}
		if a.heal {
			b = append([]byte{'\n'}, b...)
		}
		if _, err := a.fh.Write(b); err != nil {
			// The tail may now be torn: reopen (and re-inspect it) on retry.
			a.fh, a.heal = nil, false
			return err
		}
		a.heal = false
		return nil
	}()
	if dieAfter {
		die(faultinject.StoreOpWrite, a.path)
	}
	return werr
}

// rename atomically renames old to new. The new name is durable only
// after a flush of the set holding the containing directory; one covers
// every rename since the last, which is how a batch pays for its K
// object renames once.
func (f fsio) rename(oldpath, newpath string) error {
	_, dieAfter, err := f.apply(faultinject.StoreOpRename, newpath, nil)
	if err != nil {
		return err
	}
	rerr := os.Rename(oldpath, newpath)
	if dieAfter {
		die(faultinject.StoreOpRename, newpath)
	}
	return rerr
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

// verify reads path back and compares the end-to-end checksum with
// sha; on a mismatch the file is rewritten once (its new handle joins
// ss, to be paid by the caller's next round) and read back again. This
// catches write-path corruption (a flipped bit between memory and disk)
// before the commit protocol declares the payload durable.
func (f fsio) verify(ss *syncSet, path string, data []byte, sha string) error {
	for attempt := 0; ; attempt++ {
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if sumHex(got) == sha {
			return nil
		}
		if attempt == 1 {
			return fmt.Errorf("resultstore: write verification failed for %s", path)
		}
		if err := f.writeFile(ss, path, data); err != nil {
			return err
		}
	}
}
