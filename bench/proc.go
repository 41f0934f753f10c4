package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qgov/internal/stats"
)

// httpc talks to every server's HTTP and debug listeners.
var httpc = &http.Client{Timeout: 60 * time.Second}

// proc is one rtmd child process and the three loopback listeners the
// benchmark gave it: HTTP (health, metrics, trace), the binary
// transport, and the debug listener (pprof, /debug/runtime).
type proc struct {
	name                 string
	httpAddr, tcp, debug string

	cmd      *exec.Cmd
	stderr   tailBuffer
	done     chan struct{} // closed once the process has been reaped
	waitErr  error         // valid after done
	stopping atomic.Bool
}

// freeAddr picks a free loopback port below the kernel's ephemeral
// range. The port is released before rtmd binds it; outgoing connections
// take their source ports from the ephemeral range, so the benchmark's
// own connections cannot take it in between.
func freeAddr() (string, error) {
	lo := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				lo = v
			}
		}
	}
	for try := 0; try < 100 && lo > 11000; try++ {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 10000+rand.IntN(lo-10000)))
		if err == nil {
			defer l.Close()
			return l.Addr().String(), nil
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc starts rtmd with the given extra flags and waits until its
// HTTP and debug listeners answer. A start that loses a port to another
// process is retried on fresh ports.
func startProc(bin, name string, args []string) (*proc, error) {
	var err error
	for try := 0; try < 3; try++ {
		var p *proc
		if p, err = tryStartProc(bin, name, args); err == nil {
			return p, nil
		}
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, err
}

func tryStartProc(bin, name string, args []string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	for _, a := range []*string{&p.httpAddr, &p.tcp, &p.debug} {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		*a = addr
	}
	full := append([]string{"-addr", p.httpAddr, "-listen-tcp", p.tcp, "-debug-addr", p.debug, "-quiet"}, args...)
	p.cmd = exec.Command(bin, full...)
	p.cmd.Stderr = &p.stderr
	// The kernel kills the child if the benchmark dies without cleaning up.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rtmd %s: %w", name, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for _, url := range []string{"http://" + p.httpAddr + "/healthz", "http://" + p.debug + "/debug/runtime"} {
		for {
			if err := p.died(); err != nil {
				return nil, err
			}
			if resp, err := httpc.Get(url); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				p.kill()
				return nil, fmt.Errorf("rtmd %s: %s not ready after 20s", name, url)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return p, nil
}

// died reports an unexpected exit, with the tail of the child's stderr.
func (p *proc) died() error {
	select {
	case <-p.done:
		if p.stopping.Load() {
			return nil
		}
		return fmt.Errorf("rtmd %s exited (%v); stderr tail:\n%s", p.name, p.waitErr, p.stderr.String())
	default:
		return nil
	}
}

// kill stops the process and waits until it has been reaped.
func (p *proc) kill() {
	p.stopping.Store(true)
	_ = p.cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-p.done
}

// tailBuffer keeps the last 4 KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// cpuTicks is utime+stime of a process in clock ticks, from
// /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start at
	// state (field 3), so utime and stime (fields 14, 15) are at 11, 12.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + s, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times, on Linux.
const clockTick = 10 * time.Millisecond

// rssMB is a process's resident set, from /proc/<pid>/status.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// get fetches a URL and returns its body, failing on any non-200 status.
func get(url string) ([]byte, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, b)
	}
	return b, nil
}

// runtimeStats reads a process's /debug/runtime snapshot.
func (p *proc) runtimeStats() (stats.RuntimeStats, error) {
	var rs stats.RuntimeStats
	b, err := get("http://" + p.debug + "/debug/runtime")
	if err != nil {
		return rs, err
	}
	return rs, json.Unmarshal(b, &rs)
}

// liveHeap forces a GC in the process and returns its live heap bytes.
func (p *proc) liveHeap() (float64, error) {
	if _, err := get("http://" + p.debug + "/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	rs, err := p.runtimeStats()
	return float64(rs.HeapLiveBytes), err
}

// scrape takes one Prometheus scrape of the process's /v1/metrics.
func (p *proc) scrape() (prom, error) {
	b, err := get("http://" + p.httpAddr + "/v1/metrics?format=prometheus")
	return prom(b), err
}

// prom is a Prometheus text exposition.
type prom []byte

// value is the sum of every series of the named family (unlabelled
// counters and gauges have one).
func (p prom) value(name string) float64 {
	var sum float64
	p.each(name, func(_ string, v float64) { sum += v })
	return sum
}

// each calls f with the label block and value of every sample whose
// metric name is exactly name.
func (p prom) each(name string, f func(labels string, v float64)) {
	for _, line := range bytes.Split(p, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(name)) {
			continue
		}
		rest := line[len(name):]
		labels := ""
		if len(rest) > 0 && rest[0] == '{' {
			end := bytes.IndexByte(rest, '}')
			if end < 0 {
				continue
			}
			labels, rest = string(rest[1:end]), rest[end+1:]
		}
		if len(rest) == 0 || rest[0] != ' ' {
			continue // a longer name sharing the prefix
		}
		if v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64); err == nil {
			f(labels, v)
		}
	}
}

// hist is a cumulative Prometheus histogram: upper edges (seconds) and
// counts, summed over every labelled child of the family.
type hist struct {
	le  []float64
	cum []float64
}

func (p prom) hist(name string) hist {
	byLE := map[float64]float64{}
	p.each(name+"_bucket", func(labels string, v float64) {
		i := strings.Index(labels, `le="`)
		if i < 0 {
			return
		}
		s := labels[i+4:]
		s = s[:strings.IndexByte(s, '"')]
		le := math.Inf(1)
		if s != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(s, 64); err != nil {
				return
			}
		}
		byLE[le] += v
	})
	var h hist
	for le := range byLE {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.cum = append(h.cum, byLE[le])
	}
	return h
}

// minus is the histogram of the samples added between o and h.
func (h hist) minus(o hist) hist {
	out := hist{le: h.le, cum: make([]float64, len(h.cum))}
	for i := range h.cum {
		out.cum[i] = h.cum[i]
		if i < len(o.cum) {
			out.cum[i] -= o.cum[i]
		}
	}
	return out
}

// quantileUS is the upper bucket edge the q-quantile falls under, in
// microseconds (pessimistic by up to one bucket); 0 when empty.
func (h hist) quantileUS(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := math.Ceil(q * h.cum[len(h.cum)-1])
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.le[i], 1) && i > 0 {
				return h.le[i-1] * 1e6
			}
			return h.le[i] * 1e6
		}
	}
	return 0
}
