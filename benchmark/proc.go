package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// selfCPUSeconds returns the user+system CPU time this process has
// used so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPUSeconds returns the user+system CPU time of another process
// from /proc/<pid>/stat (fields 14 and 15, counted after the
// parenthesised command name, which may itself hold spaces).
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat for pid %d", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: bad cpu fields for pid %d", pid)
	}
	return (ut + st) / clockTick, nil
}

// fingerprint identifies the host and build a set of numbers came
// from; numbers from different fingerprints are not comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// check refuses hosts the load is not sized for: the workloads run two
// workers against two clients, so one CPU serialises them, and a
// GOMAXPROCS that differs from the CPU count changes what the Native
// pool measures.
func (fp fingerprint) check() error {
	if fp.NumCPU < 2 {
		return fmt.Errorf("host has %d CPU; the workloads need at least 2", fp.NumCPU)
	}
	if fp.GoMaxProcs != fp.NumCPU {
		return fmt.Errorf("GOMAXPROCS is %d but the host has %d CPUs; unset GOMAXPROCS", fp.GoMaxProcs, fp.NumCPU)
	}
	return nil
}

// poller calls read once at the start, once every interval, and once
// more when it is finished, all from one goroutine of its own.
type poller struct {
	stop, done chan struct{}
	once       sync.Once
}

func startPoller(interval time.Duration, read func()) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			read()
			select {
			case <-p.stop:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish takes the last reading and waits for the goroutine. It may be
// called again, and deferred to cover the error paths.
func (p *poller) finish() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// rssSampler reads a process's resident set twenty times a second.
// The peak (VmHWM) of a garbage-collected process is an extreme value:
// whether a collection happened to finish just before or just after
// the largest allocation moves it by a third from run to run. The
// typical resident set over the window is what a host has to give the
// process, and it repeats.
type rssSampler struct {
	*poller
	samples []float64
}

// startRSSSampler samples pid (0 for this process) until finished.
func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{}
	path := "/proc/self/statm"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/statm", pid)
	}
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	s.poller = startPoller(50*time.Millisecond, func() {
		data, err := os.ReadFile(path)
		if err != nil {
			return
		}
		if f := strings.Fields(string(data)); len(f) >= 2 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				s.samples = append(s.samples, pages*pageMB)
			}
		}
	})
	return s
}

// mean stops the sampler and returns the mean of its samples in MB.
func (s *rssSampler) mean() float64 {
	s.finish()
	return mean(s.samples)
}

// cpuTicker reads a process's cumulative CPU time at the start of a
// window, once every interval and at its end, so that the window can
// be cut into equal stretches of time with the CPU each one used.
type cpuTicker struct {
	*poller
	at []float64 // cumulative CPU seconds at 0, interval, 2·interval, …, end
}

func startCPUTicker(read func() float64, interval float64) *cpuTicker {
	c := &cpuTicker{}
	c.poller = startPoller(time.Duration(interval*float64(time.Second)), func() { c.at = append(c.at, read()) })
	return c
}

// segments stops the ticker and returns the n segments of a window of
// nominal seconds that really lasted actual seconds (a closed loop
// finishes the operation it is in): each holds its length and the CPU
// used in it, and the last one runs to the window's real end. The
// caller fills in the operations.
func (c *cpuTicker) segments(n int, nominal, actual float64) []segment {
	c.finish()
	segs := make([]segment, n)
	last := c.at[len(c.at)-1]
	for k := range segs {
		lo, hi := last, last
		if k < len(c.at) {
			lo = c.at[k]
		}
		if k+1 < len(c.at) && k < n-1 {
			hi = c.at[k+1]
		}
		segs[k] = segment{sec: nominal / float64(n), cpuS: hi - lo}
	}
	segs[n-1].sec = actual - nominal*float64(n-1)/float64(n)
	return segs
}
