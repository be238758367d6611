package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one gentriusd process on loopback.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts bin on port with a fresh data directory under dir and
// the given extra flags; every other setting is gentriusd's default. The
// daemon's log goes to a file beside its data directory.
func startDaemon(bin, dir string, port int, extra ...string) (*daemon, error) {
	data := filepath.Join(dir, fmt.Sprintf("d%d", port))
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(data + ".log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", data}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon is not used
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls /healthz until the daemon answers "ok".
func (d *daemon) waitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("gentriusd at %s exited during start-up", d.url)
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			b, _ := io.ReadAll(resp.Body) // a short read fails the check below
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(b), `"ok"`) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gentriusd at %s not healthy after 20s", d.url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop ends the daemon with SIGTERM, or SIGKILL after a grace period, and
// returns once the process has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
		return
	case <-time.After(10 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// rssMB reads a field of a process's /proc status in MB: VmRSS (resident
// now) or VmHWM (the high-water mark).
func rssMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssSampler records a process's resident set size every rssEvery while
// a workload is measured.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
}

const rssEvery = 20 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := rssMB(pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples.
func (s *rssSampler) stop() []float64 {
	close(s.stopc)
	<-s.done
	return s.samples
}
