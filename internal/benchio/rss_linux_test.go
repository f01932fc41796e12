//go:build linux

package benchio

import (
	"strings"
	"testing"
)

// A status body without a readable VmHWM must come back as unavailable
// (ok false), not as a zero reading: perfbench refuses to report a
// peak_rss_mb it could not measure.
func TestUnsupportedRSSIsNull(t *testing.T) {
	for name, body := range map[string]string{
		"no field": "Name:\tcdpd\nVmRSS:\t  1024 kB\n",
		"garbled":  "Name:\tcdpd\nVmHWM:\t  n/a\n",
		"empty":    "",
	} {
		if kb, ok := peakRSSFrom(strings.NewReader(body)); ok || kb != 0 {
			t.Errorf("%s: peakRSSFrom = (%d, %v), want (0, false)", name, kb, ok)
		}
	}
	kb, ok := peakRSSFrom(strings.NewReader("Name:\tcdpd\nVmHWM:\t  269808 kB\nVmRSS:\t 1024 kB\n"))
	if !ok || kb != 269808 {
		t.Fatalf("peakRSSFrom = (%d, %v), want (269808, true)", kb, ok)
	}
}
