//go:build !linux

package benchio

// PeakRSS reports no high-water mark on platforms without
// /proc/self/status.
func PeakRSS() (kb uint64, ok bool) { return 0, false }

// PeakRSSKB is the legacy spelling kept for gauge exports (/metrics), where
// 0 is an acceptable "unavailable" encoding.
func PeakRSSKB() uint64 { return 0 }
