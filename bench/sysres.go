package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resources is the process-wide cost snapshot the per-op figures are
// differenced from.
type resources struct {
	at        time.Time
	user, sys time.Duration
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcPause   time.Duration
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func cpuTime() time.Duration {
	user, sys := cpuTimes()
	return user + sys
}

func readResources() resources {
	user, sys := cpuTimes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		at:        time.Now(),
		user:      user,
		sys:       sys,
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPause:   time.Duration(ms.PauseTotalNs),
	}
}

// rssPeakMiB reads the process's peak resident set (VmHWM) in MiB, or 0
// where /proc does not offer it.
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sampler calls sample every interval on a goroutine of its own until
// finish, which returns once that goroutine has exited; what sample
// wrote is then safe to read.
type sampler struct{ stop, done chan struct{} }

func startSampler(every time.Duration, sample func()) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}
