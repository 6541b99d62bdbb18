package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
)

// moduleRoot walks up from the working directory to the directory
// holding go.mod: `go run ./bench` starts at the root, `go test` inside
// bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/bellamy into bin. With a warm build cache
// and an up-to-date binary this is a stat sweep.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bellamy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/bellamy: %v\n%s", err, out)
	}
	return nil
}

// settleTime is how old a server must be before stop signals it.
const settleTime = 100 * time.Millisecond

// server is one `bellamy serve` child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	startMS float64   // spawn until /healthz answered
	ready   time.Time // when it did
	stderr  bytes.Buffer
	logDone chan struct{}
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

// live tracks every child still running, so an interrupted run can
// take them down: no bellamy process may outlive the benchmark.
var live struct {
	sync.Mutex
	procs map[*server]struct{}
}

func killLiveServers() {
	live.Lock()
	defer live.Unlock()
	for s := range live.procs {
		_ = s.cmd.Process.Kill() // already-exited children just return an error
	}
}

// spawner is the one goroutine that forks servers. The parent-death
// signal follows the thread that forked, not the process, so that thread
// must live as long as the benchmark: the goroutine locks itself to its
// thread and never returns. (Locking the caller instead would tax every
// goroutine switch of the work it times.)
var spawner struct {
	once sync.Once
	jobs chan func()
}

// onSpawner runs fork on the spawner's thread and returns its error.
func onSpawner(fork func() error) error {
	spawner.once.Do(func() {
		spawner.jobs = make(chan func())
		go func() {
			runtime.LockOSThread()
			for job := range spawner.jobs {
				job()
			}
		}()
	})
	errc := make(chan error, 1)
	spawner.jobs <- func() { errc <- fork() }
	return <-errc
}

// startServer spawns bin serve on an ephemeral loopback port, reads the
// bound address from the structured log and polls /healthz through c's
// transport until the server answers.
func startServer(bin string, args []string, conns int) (*server, *client, error) {
	full := append([]string{"serve", "-addr", "127.0.0.1:0", "-log-format", "json", "-log-level", "info"}, args...)
	s := &server{
		cmd:     exec.Command(bin, full...),
		logDone: make(chan struct{}),
		exited:  make(chan struct{}),
	}
	s.cmd.Stderr = &s.stderr
	// Should the benchmark die without running its clean-up (SIGKILL, a
	// crash), the kernel takes the server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if err := onSpawner(s.cmd.Start); err != nil {
		return nil, nil, fmt.Errorf("bench: starting %s: %w", bin, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*server]struct{}{}
	}
	live.procs[s] = struct{}{}
	live.Unlock()

	addrc := make(chan string, 1) // the scanner sends at most once and never blocks
	go s.scanLog(bufio.NewScanner(out), addrc)
	go func() {
		<-s.logDone // Wait closes the pipe; let the scanner finish first
		s.waitErr = s.cmd.Wait()
		live.Lock()
		delete(live.procs, s)
		live.Unlock()
		close(s.exited)
	}()

	select {
	case s.addr = <-addrc:
	case <-s.exited:
		return nil, nil, fmt.Errorf("bench: server exited before serving: %v\n%s", s.waitErr, s.stderr.String())
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return nil, nil, errors.New("bench: server never logged its address")
	}
	c := newClient("http://"+s.addr, conns)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if status, _, err := c.get("/healthz"); err == nil && status == 200 {
			break
		}
		if time.Now().After(deadline) {
			_ = s.cmd.Process.Kill()
			<-s.exited
			return nil, nil, errors.New("bench: server never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	s.ready = time.Now()
	s.startMS = float64(s.ready.Sub(start)) / float64(time.Millisecond)
	return s, c, nil
}

// scanLog consumes the child's structured log until the pipe closes,
// so the child never blocks on it; the `serving models` line carries the
// bound address.
func (s *server) scanLog(sc *bufio.Scanner, addrc chan<- string) {
	defer close(s.logDone)
	sent := false
	for sc.Scan() {
		var line struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if !sent && json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "serving models" {
			sent = true
			addrc <- line.Addr
		}
	}
}

// stop drains the server with SIGTERM and reports how long the drain
// took; anything but exit code 0 is an error.
func (s *server) stop() (drainMS float64, err error) {
	// `bellamy serve` answers /healthz a moment before it installs its
	// SIGTERM handler (the listener goroutine starts first), so a signal
	// sent within microseconds of the first answer — a set-up that is torn
	// down at once — kills it instead of draining it. Seen once in some
	// forty runs; give a young server time to finish starting.
	if young := settleTime - time.Since(s.ready); young > 0 {
		time.Sleep(young)
	}
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-s.exited
		return 0, fmt.Errorf("bench: signalling server: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return 0, errors.New("bench: server did not drain within 60s of SIGTERM")
	}
	if s.waitErr != nil {
		return 0, fmt.Errorf("bench: server drain: %v\n%s", s.waitErr, s.stderr.String())
	}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// procRSSPeakMB reads VmHWM, the peak resident set, of a process.
func procRSSPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// procCPUSeconds reads utime+stime of a process from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its
	// closing parenthesis: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("bench: short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: unparsable /proc stat times")
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clockTicks, nil
}

// hostCPU is one reading of the aggregate line of /proc/stat.
type hostCPU struct{ steal, total float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// scrape is the subset of /v1/stats the benchmark reads, summed over
// shards on a sharded server.
type scrape struct {
	Requests, ResultHits, ResultMisses int64
	GateBypassed                       int64
	BatchFanouts                       int64
	Finetunes, Swaps                   int64
	MeanFinetuneMS                     float64
	WALAppends, Fsyncs                 int64
}

func (sc *scrape) addShard(st api.Stats) {
	sc.Requests += st.Requests
	sc.ResultHits += st.ResultHits
	sc.ResultMisses += st.ResultMisses
	if st.LoadCtl != nil {
		sc.GateBypassed += st.LoadCtl.GateBypassed
	}
	if st.Lifecycle != nil {
		sc.Finetunes += st.Lifecycle.Finetunes
		sc.Swaps += st.Lifecycle.Swaps
		sc.MeanFinetuneMS = st.Lifecycle.MeanFinetuneUsec / 1e3
	}
	if st.Store != nil {
		sc.WALAppends += st.Store.WALAppends
		sc.Fsyncs += st.Store.Fsyncs
	}
}

// scrapeStats reads GET /v1/stats in either its single-instance or its
// sharded shape.
func scrapeStats(c *client, sharded bool) (scrape, error) {
	status, body, err := c.get("/v1/stats")
	if err != nil {
		return scrape{}, fmt.Errorf("bench: GET /v1/stats: %w", err)
	}
	if status != 200 {
		return scrape{}, fmt.Errorf("bench: GET /v1/stats: status %d", status)
	}
	var sc scrape
	if sharded {
		var cs api.ClusterStats
		if err := json.Unmarshal(body, &cs); err != nil {
			return scrape{}, fmt.Errorf("bench: decoding cluster stats: %w", err)
		}
		for _, sh := range cs.Shards {
			sc.addShard(sh.Stats)
		}
		sc.BatchFanouts = cs.Router.BatchFanouts
		return sc, nil
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return scrape{}, fmt.Errorf("bench: decoding stats: %w", err)
	}
	sc.addShard(st)
	return sc, nil
}
