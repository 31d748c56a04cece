package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// compactBytes is the WAL compaction threshold mfpd runs with: small enough
// that churn2d compacts a few times per run, as a busy production mesh
// would at the default 1 MiB over minutes.
const compactBytes = 16 << 10

// daemon is one mfpd child process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// live tracks every running child so an interrupt or panic can kill them.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon launches mfpd on dataDir. The child dies with the benchmark
// (Pdeathsig) even if the benchmark is killed outright.
func startDaemon(bin, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-mesh", "0", "-data-dir", dataDir,
		"-compact-bytes", strconv.Itoa(compactBytes), "-log-level", "warn")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mfpd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is reported by whoever stops it
		live.Lock()
		delete(live.set, d)
		live.Unlock()
		close(d.done)
	}()
	return d, nil
}

// killAll kills every running child and waits for each to exit.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// stop drains mfpd with SIGTERM (queued batches are applied and logged)
// and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop mfpd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("stop mfpd: no exit 30s after SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("stop mfpd: %v", d.cmd.ProcessState)
	}
	return nil
}

// waitRead polls path until it answers 200 and returns when it did. It is
// the end of set-up: mfpd recovers every mesh before it listens, so the
// first answered read is the first moment a client is served.
func (d *daemon) waitRead(ctx context.Context, client *http.Client, path string) error {
	for {
		resp, err := client.Get(d.base + path)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			return fmt.Errorf("first read %s: HTTP %d", path, resp.StatusCode)
		}
		select {
		case <-d.done:
			return fmt.Errorf("mfpd exited before serving: %v", d.cmd.ProcessState)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// hwmMB returns the child's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns an HTTP client that keeps exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns the status and the whole body.
func do(ctx context.Context, client *http.Client, base, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}
