//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: one bit per CPU, 1,024 CPUs.
type cpuMask [128]byte

func (m *cpuMask) count() int {
	n := 0
	for _, b := range m {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}

// allowedCPUs returns the CPUs the calling thread may run on.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, e
	}
	return m, nil
}

// firstCPU returns a mask holding only the lowest CPU of m.
func firstCPU(m cpuMask) cpuMask {
	var one cpuMask
	for i, b := range m {
		if b != 0 {
			one[i] = b & -b
			break
		}
	}
	return one
}

// setAffinity moves every thread of the process onto the CPUs of m.
// Threads started later inherit the mask of the thread that starts them,
// so two passes over /proc/self/task leave none behind.
func setAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // a thread may exit while we walk
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}
