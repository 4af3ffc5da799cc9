package main

import (
	"bytes"
	"encoding/json"
	"errors"
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

	"repro/internal/event"
)

// daemon is one refill-serve process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// daemonConfig is the refill-serve command line the benchmark uses.
type daemonConfig struct {
	bin     string
	sink    event.NodeID
	end     int64
	horizon int64
	nodes   []event.NodeID
	logPath string
}

// startDaemon launches refill-serve with -workers 0 (all cores), waits
// until /healthz answers and registers every node. The returned duration is
// the daemon's set-up time: from launch to the last registration.
func startDaemon(cfg daemonConfig, client *http.Client) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(cfg.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	start := time.Now()
	cmd := exec.Command(cfg.bin, "-addr", addr, "-sink", fmt.Sprint(uint32(cfg.sink)),
		"-end", fmt.Sprint(cfg.end), "-workers", "0", "-horizon", fmt.Sprint(cfg.horizon))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("refill-serve exited during start-up: %v (log: %s)", err, cfg.logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("refill-serve did not answer /healthz within 20s")
		}
	}
	for _, n := range cfg.nodes {
		if _, err := post(client, d.base+"/v1/register?node="+n.String(), nil); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("register node %v: %w", n, err)
		}
	}
	return d, time.Since(start), nil
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns a client that keeps exactly one keep-alive connection.
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

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// post sends one request and returns the response body; a transport error
// or a non-2xx status is an error. The body is read in full so the
// connection is reused.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readReply(resp)
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	return readReply(resp)
}

func readReply(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// httpReplay is what one replay against the daemon measured.
type httpReplay struct {
	append, advance, report []time.Duration
	reqBytes                []float64
	wall                    time.Duration
	tally                   tally
	errs                    []string
}

// replayHTTP replays the schedule as a closed loop over two keep-alive
// connections. Connection A appends every fragment back to back, waiting
// for each acknowledgement; connection B advances the watermark for each
// slice A has finished (while A already sends the next one), reads the live
// report every sixth slice, and drains at the end. Failed requests are
// counted and never retried: /v1/append is not atomic, so a retry could
// duplicate rows.
func replayHTTP(base string, s *schedule, want reportView, a, b *http.Client) httpReplay {
	var out httpReplay
	done := make(chan int, len(s.slices)) // one send per slice; A never blocks on B
	var ta tally
	var errsA []string
	start := time.Now()
	go func() {
		defer close(done)
		for k, sl := range s.slices {
			for _, f := range sl.frags {
				t := time.Now()
				_, err := post(a, base+"/v1/append", f.body)
				out.append = append(out.append, time.Since(t))
				out.reqBytes = append(out.reqBytes, float64(len(f.body)))
				if !ta.check(err == nil) {
					errsA = append(errsA, "append: "+err.Error())
				}
			}
			done <- k
		}
	}()
	var tb tally
	var errsB []string
	for k := range done {
		t := time.Now()
		_, err := post(b, base+"/v1/advance?watermark="+strconv.FormatInt(s.slices[k].watermark, 10), nil)
		out.advance = append(out.advance, time.Since(t))
		if !tb.check(err == nil) {
			errsB = append(errsB, "advance: "+err.Error())
		}
		if (k+1)%reportEvery == 0 {
			t := time.Now()
			_, err := get(b, base+"/v1/report")
			out.report = append(out.report, time.Since(t))
			if !tb.check(err == nil) {
				errsB = append(errsB, "report: "+err.Error())
			}
		}
	}
	raw, err := post(b, base+"/v1/drain", nil)
	out.wall = time.Since(start)
	var got reportView
	if err == nil {
		err = json.Unmarshal(raw, &got)
	}
	if err == nil && !got.equal(want) {
		err = fmt.Errorf("drained report differs from the batch reference: got %s", raw)
	}
	if !tb.check(err == nil) {
		errsB = append(errsB, "drain: "+err.Error())
	}
	out.tally.add(ta)
	out.tally.add(tb)
	out.errs = append(errsA, errsB...)
	return out
}

// peakRSS reads a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + pid + "/status")
}

// resetPeakRSS restarts a process's VmHWM from its current resident set, so
// the peak read afterwards covers only the phase that follows.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}
