package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hc is the load generator's one HTTP client: keep-alive connections,
// enough idle slots for every closed-loop client plus scrapes.
var hc = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	},
	Timeout: 120 * time.Second,
}

var listeningRE = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// proc is one daemon process started from a built binary.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

// startProc runs bin with args and waits until it logs its listen
// address.
func startProc(name, bin string, args ...string) (*proc, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = w, w
	// A daemon must not outlive a benchmark that is killed mid-run.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	w.Close()
	addrc := make(chan string, 1)
	go p.readLog(r, addrc)
	go func() {
		_ = p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, p.logTail())
	case <-time.After(15 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report a listen address:\n%s", name, p.logTail())
	}
}

func (p *proc) readLog(r io.ReadCloser, addrc chan<- string) {
	defer r.Close()
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if m := listeningRE.FindStringSubmatch(line); m != nil && !sent {
			addrc <- m[1]
			sent = true
		}
		p.mu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > 40 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
	}
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) url() string { return "http://" + p.addr }

// stop sends SIGTERM (graceful drain) and waits; a daemon still alive
// after 20s is killed.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// procStatusKB reads one kB field (VmHWM, VmRSS) of /proc/PID/status.
func (p *proc) procStatusKB(field string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb
		}
	}
	return 0
}

// topology is the daemon layout a workload runs against.
type topology int

const (
	volatileNode topology = iota // one ximdd, no -archive
	durableNode                  // one ximdd -archive DIR
	fleet                        // ximdc -archive DIR over 2 ximdd -workers 1
)

// cluster is one started topology. front is the base URL clients talk
// to; daemons are every process, coordinator first for fleets.
type cluster struct {
	front   string
	daemons []*proc
	workers []*proc // the ximdd processes
}

// startCluster launches a topology with its state under dir and waits
// until the front daemon's /readyz answers 200. The returned duration
// is the set-up time: first process start to ready.
func startCluster(bin string, topo topology, dir string) (*cluster, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c := &cluster{}
	start := time.Now()
	ximdd := filepath.Join(bin, "ximdd")
	switch topo {
	case volatileNode, durableNode:
		args := []string{"-addr", "127.0.0.1:0"}
		if topo == durableNode {
			args = append(args, "-archive", filepath.Join(dir, "state"))
		}
		p, err := startProc("ximdd", ximdd, args...)
		if err != nil {
			return nil, 0, err
		}
		c.workers = []*proc{p}
		c.daemons = []*proc{p}
	case fleet:
		var wg sync.WaitGroup
		ws := make([]*proc, 2)
		errs := make([]error, 2)
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ws[i], errs[i] = startProc(fmt.Sprintf("ximdd-%d", i), ximdd, "-addr", "127.0.0.1:0", "-workers", "1")
			}(i)
		}
		wg.Wait()
		for _, w := range ws {
			if w != nil {
				c.workers = append(c.workers, w)
			}
		}
		if err := errors.Join(errs...); err != nil {
			c.stop()
			return nil, 0, err
		}
		args := []string{"-addr", "127.0.0.1:0", "-archive", filepath.Join(dir, "fleet-archive")}
		for _, w := range c.workers {
			args = append(args, "-worker", w.url())
		}
		co, err := startProc("ximdc", filepath.Join(bin, "ximdc"), args...)
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.daemons = append([]*proc{co}, c.workers...)
	}
	c.front = c.daemons[0].url()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(c.front + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, fmt.Errorf("%s never became ready", c.front)
		}
		time.Sleep(time.Millisecond)
	}
	return c, time.Since(start), nil
}

// stop drains every daemon, coordinator first, and waits for each.
func (c *cluster) stop() {
	for _, p := range c.daemons {
		p.stop()
	}
	if len(c.daemons) == 0 {
		for _, p := range c.workers {
			p.stop()
		}
	}
}

// statusMB sums one /proc status field over every daemon, in MiB.
func (c *cluster) statusMB(field string) float64 {
	var kb float64
	for _, p := range c.daemons {
		kb += p.procStatusKB(field)
	}
	return kb / 1024
}

// getter fetches a GET path from one service, over loopback or
// in-process.
type getter func(path string) ([]byte, error)

func httpGetter(base string) getter {
	return func(path string) ([]byte, error) {
		status, body, _, err := call(http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(body))
		}
		return body, nil
	}
}

func handlerGetter(h http.Handler) getter {
	return func(path string) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return rec.Body.Bytes(), nil
	}
}

// call performs one HTTP request and reads the whole response.
func call(method, url string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

// metricsSnap is one Prometheus text scrape: series (name plus any
// label set) to value.
type metricsSnap map[string]float64

func scrape(get getter) (metricsSnap, error) {
	b, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	m := metricsSnap{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}

// scrapeAll scrapes every getter and sums the series.
func scrapeAll(gets []getter) (metricsSnap, error) {
	sum := metricsSnap{}
	for _, g := range gets {
		m, err := scrape(g)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// delta is after[name] - before[name].
func delta(before, after metricsSnap, name string) float64 { return after[name] - before[name] }

// histMeanMS is a histogram's mean over the interval between two
// scrapes, in milliseconds; 0 when nothing was observed.
func histMeanMS(before, after metricsSnap, name string) float64 {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return 0
	}
	return 1000 * delta(before, after, name+"_sum") / n
}
