package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// serveProc is one running `nbandit serve` child process.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	done   chan error
}

// startServe spawns `nbandit serve` on dir with the shipped defaults and
// returns once /healthz answers, with the time that took.
func startServe(bin, dir string) (*serveProc, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-dir", dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	p := &serveProc{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan error, 1)}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("spawn nbandit serve: %w", err)
	}
	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		lines <- line
		_, _ = io.Copy(io.Discard, br)
		p.done <- cmd.Wait()
	}()
	var line string
	select {
	case line = <-lines:
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, 0, fmt.Errorf("nbandit serve printed no address within 60s")
	}
	// "nbandit serve: listening on 127.0.0.1:PORT (dir ..., N instances)"
	_, rest, ok := strings.Cut(line, "listening on ")
	addr, _, _ := strings.Cut(rest, " ")
	if !ok || addr == "" {
		p.kill()
		return nil, 0, fmt.Errorf("nbandit serve did not start: %q %s", strings.TrimSpace(line), p.stderr.String())
	}
	p.base = "http://" + addr
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			p.kill()
			return nil, 0, fmt.Errorf("nbandit serve /healthz not ready within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSS reads the child's VmHWM; call it before stop.
func (p *serveProc) peakRSS() (float64, error) { return peakRSSMB(p.cmd.Process.Pid) }

// stop shuts the server down gracefully (SIGTERM: drain, snapshot, sync)
// and waits for it to exit.
func (p *serveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal nbandit serve: %w", err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("nbandit serve exited: %w: %s", err, p.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("nbandit serve did not stop within 30s")
	}
}

// kill ends the child abruptly and waits for it.
func (p *serveProc) kill() {
	_ = p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
	}
}

// conn is one load connection: an HTTP client pinned to a single
// keep-alive TCP connection.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends a JSON body and returns the status and the response body.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, nil
}

// serverStats is the part of GET /v1/stats the gates read.
type serverStats struct {
	Instances []struct {
		ID               string `json:"id"`
		Round            int    `json:"round"`
		Decisions        uint64 `json:"decisions"`
		FeedbackApplied  uint64 `json:"feedback_applied"`
		FeedbackStale    uint64 `json:"feedback_stale"`
		FeedbackMismatch uint64 `json:"feedback_mismatch"`
		FeedbackInvalid  uint64 `json:"feedback_invalid"`
	} `json:"instances"`
}

func (c *conn) stats() (*serverStats, error) {
	raw, err := c.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var s serverStats
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &s, nil
}

// freshDir returns an empty data directory under the work dir.
func freshDir(o *options, name string) (string, error) {
	dir := fmt.Sprintf("%s/%s-%d", o.workDir, name, os.Getpid())
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
