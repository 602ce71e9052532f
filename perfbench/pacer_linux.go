package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a deadline with microsecond precision. time.Sleep
// rounds short waits up to the runtime's millisecond timer granularity,
// and a raw nanosleep(2) keeps the goroutine's processor while it blocks,
// stalling the farm's goroutines on a host with few cores. A timerfd read
// through the runtime's network poller has neither problem: the goroutine
// parks, its processor runs other work, and the poller wakes it when the
// kernel timer fires.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil blocks until t. Should the timer fail, it returns early:
// the request then goes out late, and the queue replay discounts the
// generator's lateness in any case.
func (p *pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return
	}
	var buf [8]byte
	_, _ = p.f.Read(buf[:]) // the expiration count; only the wake-up matters
}

func (p *pacer) close() { p.f.Close() } //nolint:errcheck // nothing was written
