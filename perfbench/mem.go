package main

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// startRun prepares the process for one measured run: a full
// collection that returns freed memory to the OS, then a reset of the
// kernel's peak-RSS mark, so the peak read after the run is that run's
// own and not set-up's or an earlier run's garbage.
func startRun() {
	debug.FreeOSMemory()
	// Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
	// Where that is refused, runPeakMB falls back to the process peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runPeakMB is the peak resident memory since the last startRun, in
// MiB: VmHWM from /proc/self/status, or the whole process's peak from
// getrusage where that file cannot be read.
func runPeakMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
