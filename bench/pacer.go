package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is the clock an open-loop generator sleeps on. A Go process that
// is otherwise idle waits for its timers in epoll_wait, whose timeout has
// millisecond resolution, so time.Sleep(100µs) returns a millisecond
// late — and a schedule paced by it would measure the generator's
// lateness, not the system. A timerfd is a file descriptor: the runtime's
// poller is woken by its expiry like by any socket, at the kernel's
// high-resolution timer precision (tens of microseconds), and the
// sleeping goroutine holds neither a thread nor a processor meanwhile.
// Where timerfd is unavailable the pacer degrades to time.Sleep, and
// gen.late_p99_us shows it.
type pacer struct {
	wallClock
	f *os.File // nil: fall back to time.Sleep
}

// itimerspec mirrors struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

func newPacer(c wallClock) *pacer {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &pacer{wallClock: c}
	}
	return &pacer{wallClock: c, f: os.NewFile(fd, "timerfd")}
}

func (p *pacer) sleep(ns int64) {
	if ns <= 0 {
		return
	}
	if p.f == nil || !p.arm(ns) {
		time.Sleep(time.Duration(ns))
		return
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Duration(ns))
	}
}

// arm sets the timer to expire once, ns from now.
func (p *pacer) arm(ns int64) bool {
	rc, err := p.f.SyscallConn()
	if err != nil {
		return false
	}
	spec := itimerspec{value: syscall.NsecToTimespec(ns)}
	var errno syscall.Errno
	err = rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	})
	return err == nil && errno == 0
}

func (p *pacer) close() {
	if p.f != nil {
		_ = p.f.Close()
	}
}
