package main

// The server under test: swserve as a child process with the
// production flags, plus the outside views of it the benchmark reads —
// /metrics text, /proc CPU time and peak RSS.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running swserve child.
type server struct {
	cmd     *exec.Cmd
	base    string
	dir     string // run directory holding wal/, spill/ and the log
	flags   []string
	exited  chan struct{}
	waitErr error
}

// startServer launches swserve on a free loopback port with a fresh
// WAL (and spill) directory under dir, and waits until it answers
// /healthz.
func startServer(bin, dir string, w *workload, gomaxprocs int) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	flags := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-d", "4", // the pinned default tenant; the workloads never touch it
		"-wal-dir", filepath.Join(dir, "wal"), "-wal-sync", "5ms",
		"-metrics", "-hotkeys",
	}
	if w.needsSpill() {
		flags = append(flags, "-spill-dir", filepath.Join(dir, "spill"))
	}
	flags = append(flags, w.serverFlags...)
	logf, err := os.Create(filepath.Join(dir, "swserve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, flags...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	// The server must not outlive the benchmark, even when the benchmark
	// is killed before it can stop the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start swserve: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, flags: flags, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("swserve exited during start-up: %v (log in %s)", s.waitErr, dir)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("swserve did not become healthy within 30s")
		}
	}
}

// stop terminates the child and waits for it to exit.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// cpuSplit reads the child's user and system CPU seconds from /proc.
func (s *server) cpuSplit() (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	str := string(data)
	f := strings.Fields(str[strings.LastIndexByte(str, ')')+2:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return ut / clockTicks, st / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux for /proc accounting.
const clockTicks = 100

// peakRSSMB reads the child's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metrics is one /metrics scrape: series (name plus label set) →
// value.
type metrics map[string]float64

func (s *server) scrape() (metrics, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
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
	return m, sc.Err()
}

// delta returns after[name] − before[name] for one series.
func delta(before, after metrics, series string) float64 {
	return after[series] - before[series]
}

// histQuantile estimates quantile q of the observations a histogram
// gained between two scrapes, interpolating linearly inside the
// bucket that holds it. It returns 0 when the histogram gained none.
func histQuantile(before, after metrics, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(k[len(prefix):], `"}`)
		le := 0.0
		if leStr == "+Inf" {
			le = -1
		} else {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	// Ascending by bound, +Inf (le < 0) last.
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].le < 0 || bs[j].le < 0 {
			return bs[j].le < 0 && bs[i].le >= 0
		}
		return bs[i].le < bs[j].le
	})
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	target := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.le < 0 {
				return prevLe
			}
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(target-prevN)/(b.n-prevN)
		}
		if b.le >= 0 {
			prevLe = b.le
		}
		prevN = b.n
	}
	return prevLe
}

// hostCPU reads the host's aggregate CPU counters from /proc/stat:
// steal ticks (time the hypervisor gave to others) and all ticks.
func hostCPU() (steal, total float64) {
	f := strings.Fields(strings.SplitN(readFile("/proc/stat"), "\n", 2)[0])
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
