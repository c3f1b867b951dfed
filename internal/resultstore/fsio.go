package resultstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Hook intercepts the filesystem operations of one store instance: the
// seam crash drills and kill-point sweeps inject storage faults through.
type Hook interface {
	// Apply is called before each operation: op is "write" (data
	// appended, or written in place in the write-ahead log), "read" or
	// "rename" (data is nil; path is what is read or renamed). It
	// returns the payload to use, an error that fails the operation, and
	// dieAfter: when non-nil, the store panics with it
	// once the operation has completed. A hook may also panic itself, a
	// death before the operation.
	Apply(op, path string, data []byte) (out []byte, dieAfter any, err error)
	// Sync fsyncs fh. Apply never sees an fsync, so how fsyncs are
	// grouped cannot move a kill point.
	Sync(fh *os.File) error
}

// osHook is the Hook of a store with no fault seam: every operation runs
// as asked.
type osHook struct{}

func (osHook) Apply(_, _ string, data []byte) ([]byte, any, error) { return data, nil, nil }
func (osHook) Sync(fh *os.File) error                              { return fh.Sync() }

// fsio funnels every filesystem operation of the store through its hook,
// so crash drills can die, tear, flip, or fail any single write or read
// the store performs.
type fsio struct{ Hook }

// syncFanout bounds the fsyncs one round keeps in flight: enough for
// the filesystem journal to merge a batch's files into one commit, few
// enough that a round never parks more threads than a small host has.
const syncFanout = 12

// syncSet is the durability a protocol step owes: the still-open
// handles of every file appended to since the last round, and the
// directories a file was created in. Nothing in it is durable until
// flush has returned nil; drop closes whatever an abandoned step left
// behind. Hook.Apply never sees an fsync, so when a set is flushed
// is invisible to the kill-point drills.
type syncSet struct {
	files         []*os.File
	dirs          []string
	syncs, rounds int // fsyncs issued and blocking rounds paid so far
}

// flush pays the set in one round: every handle and directory is
// fsynced through f and closed concurrently, at most syncFanout at a
// time. Directory fsync stays best-effort (not all platforms support it).
func (ss *syncSet) flush(f fsio) error {
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
			errs[i] = errors.Join(f.Sync(fh), fh.Close())
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

// open opens path for reading and writing with the extra flag, creating
// it if it is missing, and adds the handle to the set. Creating a file
// is the only way the store adds a directory entry, and the directory
// joins the set: once a side holds its files, a batch creates nothing
// and owes no directory an fsync.
func (ss *syncSet) open(path string, flag int) (*os.File, error) {
	fh, err := os.OpenFile(path, flag|os.O_RDWR, 0)
	if os.IsNotExist(err) {
		fh, err = os.OpenFile(path, flag|os.O_CREATE|os.O_RDWR, 0o644)
		if dir := filepath.Dir(path); err == nil && !slices.Contains(ss.dirs, dir) {
			ss.dirs = append(ss.dirs, dir)
		}
	}
	if err != nil {
		return nil, err
	}
	ss.files = append(ss.files, fh)
	return fh, nil
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

// open opens the file (creating it if need be; see syncSet.open) and
// learns its size and whether its tail is torn.
func (a *appender) open() error {
	fh, err := a.ss.open(a.path, os.O_APPEND)
	if err != nil {
		return err
	}
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
	b, dieAfter, err := a.f.Apply("write", a.path, data)
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
	if dieAfter != nil {
		panic(dieAfter)
	}
	return off, werr
}

// line appends one line (newline added here).
func (a *appender) line(line []byte) error {
	_, err := a.write(append(append([]byte(nil), line...), '\n'), true)
	return err
}

// writeAt writes data at off of path as one hooked write, through a
// handle that joins ss: the write-ahead log is written in place, not
// appended to (see Store.walWrite).
func (f fsio) writeAt(ss *syncSet, path string, off int64, data []byte) error {
	b, dieAfter, err := f.Apply("write", path, data)
	if err != nil {
		return err
	}
	fh, err := ss.open(path, 0)
	if err == nil {
		_, err = fh.WriteAt(b, off)
	}
	if dieAfter != nil {
		panic(dieAfter)
	}
	return err
}

// readAt reads size bytes at off of path as one hooked read, retried once
// on error; a range the file does not hold whole fails with io.EOF.
func (f fsio) readAt(path string, off, size int64) (b []byte, err error) {
	err = retryOnce(func() error {
		_, dieAfter, err := f.Apply("read", path, nil)
		if err != nil {
			return err
		}
		fh, err := os.Open(path)
		if err == nil {
			b = make([]byte, size)
			_, err = fh.ReadAt(b, off)
			fh.Close()
		}
		if dieAfter != nil {
			panic(dieAfter)
		}
		return err
	})
	return b, err
}

// readFile reads path whole.
func (f fsio) readFile(path string) ([]byte, error) {
	_, dieAfter, err := f.Apply("read", path, nil)
	if err != nil {
		return nil, err
	}
	b, rerr := os.ReadFile(path)
	if dieAfter != nil {
		panic(dieAfter)
	}
	return b, rerr
}

// head reads up to n bytes from the start of path as one hooked read,
// not retried. A missing file is an os.ErrNotExist error and no
// operation: there is nothing to read.
func (f fsio) head(path string, n int) ([]byte, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	_, dieAfter, err := f.Apply("read", path, nil)
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	k, err := io.ReadFull(fh, b)
	if dieAfter != nil {
		panic(dieAfter)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // a shorter file is still read whole
	}
	return b[:k], err
}

// rotate renames path to path+".old", or to path+".old.N" for the first
// free N when earlier rotations took the shorter names, so one rotation
// never clobbers another. The rename is one hooked operation, not
// retried: a rotation that fails is an error naming the file.
func (f fsio) rotate(path string) (string, error) {
	dst := path + ".old"
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); err != nil {
			break
		}
		dst = fmt.Sprintf("%s.old.%d", path, n)
	}
	_, dieAfter, err := f.Apply("rename", path, nil)
	if err == nil {
		err = os.Rename(path, dst)
	}
	if dieAfter != nil {
		panic(dieAfter)
	}
	if err != nil {
		return "", fmt.Errorf("resultstore: rotate %s aside: %w", path, err)
	}
	return dst, nil
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
