package main

// Machine-speed calibration.
//
// The 2-vCPU sandbox this benchmark is sized for changes speed by 15-30%
// for minutes at a time (neighbours on the same host: SMT siblings,
// cache, memory bandwidth), so two sets of ten runs of the same code,
// twenty minutes apart, differ by more than any bound a metric may have.
// Every reported time is therefore divided by the machine's speed at
// that moment, measured with a reference job that is frozen with the
// benchmark and shares nothing with the program under test: parsing and
// printing a generated Go file with the standard library, on two
// goroutines, like the two simulation slots. A slice of it runs before
// and after every timed pass (and every set-up); the speed index over
// the interval is refNominalS ÷ the mean of the two slices, and CPU time
// is multiplied by it. Of a pass's wall-clock only the share during
// which some CPU was busy is scaled (busyMeter): a fleet's linger or an
// fsync wait does not get shorter on a faster CPU. The result reads in
// seconds on a machine where the slice takes refNominalS — this box when
// it is quiet — and the raw seconds, busy share and speed index are
// printed and recorded beside it.

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"sync"
	"time"
)

// refNominalS is the reference slice's duration on the quiet machine the
// first numbers were taken on. It only fixes the scale of the reported
// times; changing it re-baselines every time metric.
const refNominalS = 0.225

const (
	refFuncs = 400 // functions in the generated file
	refReps  = 4   // parse+print rounds per goroutine per slice
)

var (
	refOnce sync.Once
	refSrc  []byte
)

// refSource is a deterministic Go file of a few thousand lines with the
// usual mix of declarations, control flow, literals and comments.
func refSource() []byte {
	refOnce.Do(func() {
		var b bytes.Buffer
		b.WriteString("// Package ref is generated input for the reference job.\npackage ref\n\nimport \"fmt\"\n\n")
		for i := 0; i < refFuncs; i++ {
			fmt.Fprintf(&b, `// f%[1]d folds its arguments; the shape varies with %[1]d modulo small primes.
type t%[1]d struct {
	a, b int
	name string
	next *t%[1]d
}

func f%[1]d(x, y int, s []string) (int, error) {
	acc := t%[1]d{a: x, b: y, name: "f%[1]d"}
	for i, v := range s {
		switch {
		case i%%%[2]d == 0 && len(v) > %[3]d:
			acc.a += len(v) * (x<<%[3]d | y&0x%[1]x)
		case v == acc.name:
			acc.next = &t%[1]d{a: acc.b, b: acc.a} // swap
		default:
			acc.b -= i
		}
	}
	if acc.a < acc.b {
		return 0, fmt.Errorf("f%[1]d: %%d < %%d (%%q)", acc.a, acc.b, acc.name)
	}
	m := map[string][]int{"x": {x, y, %[1]d}, acc.name: nil}
	return acc.a - acc.b + len(m["x"]), nil
}

`, i, i%7+2, i%5+1)
		}
		refSrc = b.Bytes()
	})
	return refSrc
}

// refSlice runs one slice of the reference job and returns its duration
// in seconds.
func refSlice() float64 {
	src := refSource()
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < refReps; r++ {
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, "ref.go", src, parser.ParseComments)
				if err != nil {
					panic("reference job: generated source does not parse: " + err.Error())
				}
				var out bytes.Buffer
				if err := format.Node(&out, fset, f); err != nil {
					panic("reference job: " + err.Error())
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// speedOf turns the reference slices around an interval into the
// machine's speed index over it: 1 on the nominal machine, 0.8 when the
// reference job takes a quarter longer.
func speedOf(before, after float64) float64 {
	return refNominalS / ((before + after) / 2)
}

// calibratedWall scales the CPU-bound share of a wall-clock interval by
// the speed index and leaves the rest as measured.
func calibratedWall(wallS, busyShare, speed float64) float64 {
	return wallS * (1 - busyShare + busyShare*speed)
}

// busyMeter samples, every couple of milliseconds, whether any task
// other than the sampler itself is runnable (the "running/total" field
// of /proc/loadavg), and reports the share of samples in which one was:
// the share of an interval during which the CPU, not a sleep or the
// disk, was what the pass waited for. The sandbox runs nothing else.
type busyMeter struct {
	stop  chan struct{}
	done  chan float64
	once  sync.Once
	value float64
}

func startBusyMeter() *busyMeter {
	m := &busyMeter{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		busy, total := 0, 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				if total == 0 {
					m.done <- 1 // no reading: treat the interval as CPU-bound
				} else {
					m.done <- float64(busy) / float64(total)
				}
				return
			case <-tick.C:
				if n, ok := runnableTasks(); ok {
					total++
					if n > 1 { // 1 is this goroutine's own thread
						busy++
					}
				}
			}
		}
	}()
	return m
}

// share stops the meter, once, and returns the busy share.
func (m *busyMeter) share() float64 {
	m.once.Do(func() {
		close(m.stop)
		m.value = <-m.done
	})
	return m.value
}

// runnableTasks reads the number of currently runnable scheduling
// entities from /proc/loadavg ("0.52 0.41 0.30 3/120 4567" → 3).
func runnableTasks() (int, bool) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	return parseRunnable(string(b))
}

func parseRunnable(loadavg string) (int, bool) {
	var a, b, c float64
	var running, total int
	if _, err := fmt.Sscanf(loadavg, "%f %f %f %d/%d", &a, &b, &c, &running, &total); err != nil {
		return 0, false
	}
	return running, true
}
