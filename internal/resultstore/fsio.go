package resultstore

import (
	"errors"
	"fmt"
	"os"

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

// writeFile creates (or truncates) path with data and fsyncs it.
func (f fsio) writeFile(path string, data []byte) error {
	b, dieAfter, err := f.apply(faultinject.StoreOpWrite, path, data)
	if err != nil {
		return err
	}
	werr := func() error {
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := fh.Write(b); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Sync(); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}()
	if dieAfter {
		die(faultinject.StoreOpWrite, path)
	}
	return werr
}

// appender appends lines to one file through a single O_APPEND handle
// that is fsynced once, on close: a group commit writes its K index or
// journal lines and pays one fsync for the file instead of K. Every line
// is still its own hooked write, so a crash drill can die between any
// two of them.
type appender struct {
	f    fsio
	path string
	fh   *os.File // opened by the first write
	heal bool     // the file's tail is a torn line: start with a newline
}

func (f fsio) appender(path string) *appender { return &appender{f: f, path: path} }

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
			a.fh.Close()
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

// close makes every line written since open durable and releases the
// handle. A no-op when nothing was written.
func (a *appender) close() error {
	if a.fh == nil {
		return nil
	}
	err := errors.Join(a.fh.Sync(), a.fh.Close())
	a.fh = nil
	return err
}

// rename atomically renames old to new. The new name is durable only
// after syncDir on the containing directory.
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

// syncDir fsyncs a directory so the renames into it survive power loss
// (best-effort: not all platforms support directory fsync). One call
// covers every rename since the last, which is how a batch pays for its
// K object renames once.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
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

// writeVerified writes data to path and reads it back, comparing the
// end-to-end checksum; one rewrite is attempted on mismatch. This
// catches write-path corruption (a flipped bit between memory and disk)
// before the commit protocol declares the payload durable.
func (f fsio) writeVerified(path string, data []byte, sha string) error {
	for attempt := 0; ; attempt++ {
		if err := f.writeFile(path, data); err != nil {
			return err
		}
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
	}
}
