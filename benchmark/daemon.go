package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark produces apart from traces
// goes: the progressd binary, daemon logs, heap files. It is relative to
// the working directory (the repository root) and git-ignored.
const buildDir = ".bench_build"

// buildProgressd compiles ./cmd/progressd into buildDir and returns the
// binary's path. Build time is not part of any metric.
func buildProgressd() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "progressd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/progressd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/progressd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running progressd.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // host:port
	setup time.Duration
	// log is the daemon's stderr, kept for error reports. The reader
	// goroutine writes it; read it only after stop.
	log    bytes.Buffer
	waited chan struct{}
}

var servingRE = regexp.MustCompile(`serving on http://([^ ]+)`)

// startDaemon spawns progressd with daemonArgs on an ephemeral loopback port
// and waits for the first 200 from /healthz. setup is spawn → that response:
// data generation, and the heap-file spill when the workload is paged.
func startDaemon(bin string, daemonArgs []string, client *http.Client) (*daemon, error) {
	scratch, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, daemonArgs...)
	cmd := exec.Command(bin, args...)
	// progressd spills under os.TempDir(); keep that inside the checkout.
	cmd.Env = append(os.Environ(), "TMPDIR="+scratch)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, waited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		// Drains the log for the daemon's whole life so it never blocks on a
		// full pipe; ends when the daemon exits and the pipe closes.
		defer close(d.waited)
		br := bufio.NewReader(pipe)
		sent := false
		for {
			line, err := br.ReadString('\n')
			d.log.WriteString(line)
			if m := servingRE.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addrCh <- m[1]
			}
			if err != nil {
				if !sent {
					close(addrCh)
				}
				return
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			<-d.waited
			cmd.Wait()
			return nil, fmt.Errorf("progressd exited before serving:\n%s", d.log.String())
		}
		d.addr = addr
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("progressd did not start serving within 60s")
	}
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("progressd /healthz not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 5 s) and waits
// until the process and its log reader have ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	killer := time.AfterFunc(5*time.Second, func() { d.cmd.Process.Kill() })
	<-d.waited // the log pipe closes when the process exits
	d.cmd.Wait()
	killer.Stop()
}
