//go:build linux

package benchio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// PeakRSS reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status, in KiB. ok is false when the field cannot be read,
// so callers can tell "unavailable" from a real reading.
func PeakRSS() (kb uint64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	return peakRSSFrom(f)
}

// peakRSSFrom scans a /proc/<pid>/status body for VmHWM. A body without
// the field, or with one it cannot parse, reads as unavailable, never as 0.
func peakRSSFrom(r io.Reader) (kb uint64, ok bool) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%d kB", &kb); err == nil {
			return kb, true
		}
		return 0, false
	}
	return 0, false
}

// PeakRSSKB is the legacy spelling kept for gauge exports (/metrics), where
// 0 is an acceptable "unavailable" encoding.
func PeakRSSKB() uint64 {
	kb, _ := PeakRSS()
	return kb
}
