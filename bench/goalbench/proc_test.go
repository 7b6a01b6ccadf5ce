package main

import (
	"testing"
	"time"
)

// TestLineWatchSeesEarlierLine covers a child that prints its marker line
// before the benchmark starts watching for it, as a fast-starting service
// does when the benchmark's own process is descheduled.
func TestLineWatchSeesEarlierLine(t *testing.T) {
	for _, early := range []bool{true, false} {
		var w lineWatch
		line := "goalsweep: sweep service at http://127.0.0.1:1 (0 jobs recovered)\n"
		if early {
			w.Write([]byte(line))
		}
		found := w.watch("at http://")
		if !early {
			w.Write([]byte(line))
		}
		select {
		case got := <-found:
			if got+"\n" != line {
				t.Errorf("early=%v: got %q", early, got)
			}
		case <-time.After(time.Second):
			t.Errorf("early=%v: the marker line was never delivered", early)
		}
	}
}
