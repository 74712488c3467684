package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToCPU restricts every thread of this process to one CPU. Threads the
// runtime starts later inherit the mask from the thread that creates
// them, so pinning the few that exist this early pins the process. The
// generator takes CPU 0 and the SUT the last CPU: each side then has a
// core of its own, and where the OS would have placed their threads is no
// longer part of any number. On a single-CPU machine, or where the call
// is refused, the process stays unpinned and says so.
func pinToCPU(cpu int) bool {
	if runtime.NumCPU() < 2 {
		return false
	}
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	ok := true
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
		if errno != 0 {
			ok = false
		}
	}
	return ok
}
