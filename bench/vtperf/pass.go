package main

// One pass: a complete sweep from the first process spawn to the last
// process exit, run through the vtbench / vtsweepd command lines only.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env is what set-up leaves for the passes of one workload.
type env struct {
	Work     string // scratch directory inside the checkout, removed on exit
	Vtbench  string
	Vtsweepd string
	// Pristine is the populated store (S, M) a warm workload copies.
	Pristine string
	Smoke    bool
	Rand     *rand.Rand
	Rec      *recorder
}

// procUsage is one child's resource use, from its exit status.
type procUsage struct {
	Name     string  `json:"name"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
}

type child struct {
	name   string
	cmd    *exec.Cmd
	start  time.Time
	stdout bytes.Buffer
	stderr bytes.Buffer
	usage  procUsage
}

// spawn starts a child with GOMAXPROCS pinned.
func spawn(ctx context.Context, name, bin string, gomaxprocs int, dir string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.CommandContext(ctx, bin, args...)}
	c.cmd.Dir = dir
	c.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = &c.stderr
	// Bound how long Wait lingers on the pipes after a kill.
	c.cmd.WaitDelay = 2 * time.Second
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return c, nil
}

// wait reaps the child and records its rusage.
func (c *child) wait() error {
	err := c.cmd.Wait()
	c.usage = procUsage{Name: c.name, WallS: time.Since(c.start).Seconds()}
	if ps := c.cmd.ProcessState; ps != nil {
		c.usage.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.usage.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w\n%s", c.name, err, tail(c.stderr.String(), 20))
	}
	return nil
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// passResult is one pass's measurements, in raw seconds, and the
// artifacts to verify.
type passResult struct {
	WallS float64     `json:"wall_s"`
	CPUS  float64     `json:"cpu_s"`
	RSSMB float64     `json:"peak_rss_mb"`
	Procs []procUsage `json:"procs"`
	// BusyShare is the share of the pass's wall-clock during which some
	// CPU was busy; Speed is the machine's speed index around the pass
	// (timed passes of an end-to-end run only). See calibrate.go.
	BusyShare float64 `json:"busy_share"`
	Speed     float64 `json:"speed_index,omitempty"`
	// Fleet-only timings.
	StartupMs float64 `json:"startup_ms,omitempty"`
	LingerMs  float64 `json:"linger_ms,omitempty"`

	tables   string
	report   benchReport
	journals map[string][]journalEntry // by store name: primary, mirror
	// Traced passes only: the primary store's size, the -sweeptrace dump
	// (local passes) or the coordinator's /metrics (fleet passes).
	storeBytes int64
	dump       *sweepDump
	dumpKB     float64
	prom       map[string]float64
}

func (p *passResult) addUsage(cs ...*child) {
	for _, c := range cs {
		p.Procs = append(p.Procs, c.usage)
		p.CPUS += c.usage.CPUS
		p.RSSMB += c.usage.MaxRSSMB
	}
}

// passOpts vary a pass beyond its workload: the ledger probes re-run a
// workload's sweep without a store, without a mirror, or forked.
type passOpts struct {
	Traced   bool
	NoStore  bool
	NoMirror bool
	Extra    []string
}

const passTimeout = 150 * time.Second

// runPass runs one pass of w in a fresh directory under e.Work, which
// it removes once the artifacts are read.
func runPass(ctx context.Context, e *env, w workload, o passOpts) (*passResult, error) {
	dir, err := os.MkdirTemp(e.Work, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel() // kills whatever is still running on any failure
	run := runLocalPass
	if w.Fleet {
		run = runFleetPass
	}
	res, err := run(ctx, e, w, o, dir)
	if err == nil && o.Traced {
		res.storeBytes = dirBytes(filepath.Join(dir, "S"))
	}
	return res, err
}

func runLocalPass(ctx context.Context, e *env, w workload, o passOpts, dir string) (*passResult, error) {
	store, mirror := filepath.Join(dir, "S"), filepath.Join(dir, "M")
	if w.Warm {
		// Untimed: the warm path is measured against the same store
		// every pass, so earlier passes cannot age it.
		if err := copyTree(e.Pristine, dir); err != nil {
			return nil, fmt.Errorf("copy populated store: %w", err)
		}
	}
	args := append(w.Set.args(e.Smoke), "-workers", "2", "-faildir", "", "-json", filepath.Join(dir, "report.json"))
	if !o.NoStore {
		args = append(args, "-store", store)
		if w.Mirror && !o.NoMirror {
			args = append(args, "-mirror", mirror)
		}
	}
	if w.Sampled {
		args = append(args, "-sample", samplingSpec)
	}
	tracePath := filepath.Join(dir, "sweeptrace.json")
	if o.Traced {
		args = append(args, "-sweeptrace", tracePath)
	}
	args = append(args, o.Extra...)

	res := &passResult{journals: map[string][]journalEntry{}}
	sp := e.Rec.begin("spawn")
	meter := startBusyMeter()
	defer meter.share() // stops it on the error paths
	t0 := time.Now()
	c, err := spawn(ctx, "vtbench", e.Vtbench, 2, dir, args...)
	e.Rec.end(sp)
	if err != nil {
		return nil, err
	}
	sw := e.Rec.begin("sweep")
	err = c.wait()
	res.WallS = time.Since(t0).Seconds()
	res.BusyShare = meter.share()
	e.Rec.end(sw)
	if err != nil {
		return nil, err
	}
	res.addUsage(c)
	res.tables = c.stdout.String()
	if err := res.readArtifacts(dir, o, w.Mirror && !o.NoMirror); err != nil {
		return nil, err
	}
	if o.Traced {
		b, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		d, err := parseSweepTrace(b)
		if err != nil {
			return nil, err
		}
		res.dump, res.dumpKB = &d, float64(len(b))/1024
	}
	return res, nil
}

// readArtifacts loads the -json report and the journals of a finished
// pass from dir (stores S and M).
func (p *passResult) readArtifacts(dir string, o passOpts, mirrored bool) error {
	b, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	if p.report, err = parseBenchReport(b); err != nil {
		return err
	}
	if o.NoStore {
		return nil
	}
	stores := map[string]string{"journal": "S"}
	if mirrored {
		stores["mirror journal"] = "M"
	}
	for name, sub := range stores {
		f, err := os.Open(filepath.Join(dir, sub, "journal.jsonl"))
		if err != nil {
			return err
		}
		js, err := parseJournal(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p.journals[name] = js
	}
	return nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

var statusClient = &http.Client{Timeout: time.Second}

// httpGet returns the body of a 200 response.
func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := statusClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// runFleetPass runs the sweep through a vtsweepd coordinator and two
// one-slot vtbench workers on a free loopback port. The coordinator has
// both cores for its HTTP and store work; each worker simulates on one.
func runFleetPass(ctx context.Context, e *env, w workload, o passOpts, dir string) (*passResult, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	url := "http://" + addr
	args := append(w.Set.args(e.Smoke), "-addr", addr, "-faildir", "",
		"-store", filepath.Join(dir, "S"), "-mirror", filepath.Join(dir, "M"),
		"-json", filepath.Join(dir, "report.json"))

	res := &passResult{journals: map[string][]journalEntry{}}
	sp := e.Rec.begin("spawn")
	meter := startBusyMeter()
	defer meter.share() // stops it on the error paths
	t0 := time.Now()
	coord, err := spawn(ctx, "vtsweepd", e.Vtsweepd, 2, dir, args...)
	if err != nil {
		e.Rec.end(sp)
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- coord.wait() }()
	// reap collects the coordinator on an error path; the deferred
	// cancel in runPass has killed it by the time it blocks for long.
	reap := func(cause error) error {
		coord.cmd.Process.Kill()
		<-exited
		return cause
	}

	// Ready when /status answers.
	for {
		if _, err := httpGet(ctx, url+"/status"); err == nil {
			break
		}
		select {
		case err := <-exited:
			e.Rec.end(sp)
			return nil, fmt.Errorf("coordinator exited before serving: %v", err)
		case <-ctx.Done():
			e.Rec.end(sp)
			return nil, reap(fmt.Errorf("coordinator never became ready: %w", ctx.Err()))
		case <-time.After(5 * time.Millisecond):
		}
	}
	res.StartupMs = float64(time.Since(t0).Microseconds()) / 1000

	// The seed decides which worker registers first.
	ids := []string{"w1", "w2"}
	e.Rand.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var workers []*child
	for _, id := range ids {
		wc, err := spawn(ctx, "worker-"+id, e.Vtbench, 1, dir,
			"-worker", url, "-workerid", id, "-slots", "1", "-faildir", "", "-store", filepath.Join(dir, "W-"+id))
		if err != nil {
			e.Rec.end(sp)
			for _, prev := range workers {
				prev.cmd.Process.Kill()
				prev.wait()
			}
			return nil, reap(err)
		}
		workers = append(workers, wc)
	}
	e.Rec.end(sp)

	sw := e.Rec.begin("sweep")
	// A traced pass watches for the sweep closing: from then on the
	// coordinator only lingers so that workers see the end, and that
	// window is the only time its /metrics totals exist. An untimed
	// observer would be free; this one polls, so timed passes skip it.
	var closedAt time.Time
	var coordErr error
	coordExited := false
	for o.Traced && !coordExited && closedAt.IsZero() {
		select {
		case coordErr = <-exited:
			coordExited = true
		case <-time.After(10 * time.Millisecond):
			if b, err := httpGet(ctx, url+"/status"); err == nil && sweepClosed(b) {
				closedAt = time.Now()
				if mb, err := httpGet(ctx, url+"/metrics"); err == nil {
					res.prom, _ = parsePromText(bytes.NewReader(mb))
				}
			}
		}
	}
	if !coordExited {
		coordErr = <-exited
	}
	coordDone := time.Now()
	var errs []error
	if coordErr != nil {
		// Workers would otherwise wait out their offline grace period.
		errs = append(errs, coordErr)
		for _, wc := range workers {
			wc.cmd.Process.Kill()
		}
	}
	for _, wc := range workers {
		if err := wc.wait(); err != nil {
			errs = append(errs, err)
		}
	}
	res.WallS = time.Since(t0).Seconds()
	res.BusyShare = meter.share()
	e.Rec.end(sw)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if !closedAt.IsZero() {
		res.LingerMs = float64(coordDone.Sub(closedAt).Microseconds()) / 1000
	}
	res.addUsage(append([]*child{coord}, workers...)...)
	res.tables = coord.stdout.String()
	return res, res.readArtifacts(dir, o, true)
}

// sweepClosed reads the one /status field the pass needs.
func sweepClosed(status []byte) bool {
	var st struct {
		SweepClosed bool `json:"sweepClosed"`
	}
	return json.Unmarshal(status, &st) == nil && st.SweepClosed
}

// copyTree copies the regular files and directories under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
