package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A halted virtual CPU is slow to wake: on the 2-CPU reference VM a bare
// nanosleep loop wakes 1.7 ms late at p99, against 67 µs with every CPU
// kept busy. Any call that sleeps or waits for the other process then
// carries that wake-up in its latency tail. So while a workload runs,
// one spinner process per CPU runs at SCHED_IDLE, the lowest priority:
// it keeps its CPU from halting and yields at once to any other thread.
// This is the software form of booting with idle=poll.

// spinFlag makes the command run as a spinner.
const spinFlag = "-idle-spin"

// schedIdle is SCHED_IDLE from linux/sched.h.
const schedIdle = 5

// spin runs forever at SCHED_IDLE on one locked thread.
func spin() int {
	runtime.LockOSThread()
	var param [1]int32 // struct sched_param: sched_priority 0
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param[0]))); errno != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: sched_setscheduler(SCHED_IDLE):", errno)
		return 1
	}
	for {
	}
}

// spinners is the running set of spinner processes.
type spinners []*exec.Cmd

// startSpinners starts one spinner per CPU. Each dies with this process
// if it exits early (Pdeathsig); stop ends them otherwise.
func startSpinners() (spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var s spinners
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinFlag)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			s.stop()
			return nil, fmt.Errorf("starting spinner: %w", err)
		}
		s = append(s, cmd)
	}
	return s, nil
}

// stop kills every spinner and waits for each to exit.
func (s spinners) stop() {
	for _, cmd := range s {
		_ = cmd.Process.Kill() // an already-exited spinner needs no kill
		_ = cmd.Wait()         // killed: the exit status carries no news
	}
}

// pin restricts every thread of process pid ("self" for this one) to
// the given CPUs. Threads started later inherit the mask from their
// parent.
func pin(pid string, cpus ...int) error {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var mask [16]uint64 // cpu_set_t
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
		if errno != 0 && errno != syscall.ESRCH {
			return fmt.Errorf("pinning thread %d to CPUs %v: %w", tid, cpus, errno)
		}
	}
	return nil
}

// unpin lets every thread of this process run on any CPU again.
func unpin() error {
	all := make([]int, runtime.NumCPU())
	for i := range all {
		all[i] = i
	}
	return pin("self", all...)
}
