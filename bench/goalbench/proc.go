package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process the benchmark started. Every proc is waited
// for exactly once, by the goroutine start launches, so stop and wait can
// be called from any path without leaking a process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr lineWatch
	begin  time.Time
	done   chan struct{}
	err    error
	wall   time.Duration
}

// start launches one of the built CLIs in the work directory.
func (b *bench) start(ctx context.Context, name string, args ...string) (*proc, error) {
	p := &proc{name: name + " " + strings.Join(args, " "), done: make(chan struct{})}
	p.cmd = exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	p.cmd.Dir = b.work
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = &p.stderr
	p.begin = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		p.wall = time.Since(p.begin)
		close(p.done)
	}()
	return p, nil
}

// wait blocks until the process exits and reports a nonzero exit with the
// tail of its standard error.
func (p *proc) wait() error {
	<-p.done
	if p.err != nil {
		return fmt.Errorf("%s: %w: %s", p.name, p.err, p.stderr.tail())
	}
	return nil
}

// stop asks the process to shut down, kills it if it does not, and waits
// for it either way.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// rssMB is the process's peak resident set (ru_maxrss) in MB of 2^20
// bytes; only valid after the process exited.
func (p *proc) rssMB() float64 {
	if p.cmd.ProcessState == nil {
		return 0
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// run starts a CLI and waits for it.
func (b *bench) run(ctx context.Context, name string, args ...string) (*proc, error) {
	p, err := b.start(ctx, name, args...)
	if err != nil {
		return nil, err
	}
	return p, p.wait()
}

// lineWatch collects a process's standard error and hands the first line
// containing a marker to whoever watches for it.
type lineWatch struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	scanned int // bytes of buf already searched for the marker
	marker  string
	found   chan string
}

func (w *lineWatch) watch(marker string) <-chan string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.marker = marker
	// scan clears w.found once it delivers, which it does at once when the
	// line came before the watch.
	found := make(chan string, 1)
	w.found = found
	w.scan()
	return found
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	w.scan()
	return len(p), nil
}

// scan searches the complete lines not yet searched. Called with mu held.
func (w *lineWatch) scan() {
	for w.found != nil {
		rest := w.buf.Bytes()[w.scanned:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return
		}
		line := string(rest[:i])
		w.scanned += i + 1
		if strings.Contains(line, w.marker) {
			w.found <- line
			w.found = nil
		}
	}
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// tail is the last few lines, for error messages.
func (w *lineWatch) tail() string {
	lines := strings.Split(strings.TrimSpace(w.String()), "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, " | ")
}

// removeAll deletes a temporary directory; a failure only leaves files in
// the build directory, so it is reported and otherwise ignored.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "goalbench: warning:", err)
	}
}
