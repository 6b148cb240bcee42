package main

import (
	"bufio"
	"context"
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

	"krad/internal/journal"
)

// target is one booted kradd stack that the load generator drives over
// HTTP: the real binary (daemon) or the traced in-process rebuild
// (stack, in stack.go).
type target interface {
	// base is the primary's URL, e.g. http://127.0.0.1:41234.
	base() string
	// cpuSeconds is the user+sys CPU the daemons have used so far.
	cpuSeconds() (float64, error)
	// rssPeakMB is the primary's peak resident set (VmHWM).
	rssPeakMB() (float64, error)
	// goStats is the primary's cumulative Go heap allocation and GC CPU
	// fraction, where the target can read them (ok).
	goStats() (totalAlloc, gcCPU float64, ok bool, err error)
	// stop drains and stops the stack, waiting until every process or
	// goroutine it started has ended, and reads back its journals.
	stop() (stopInfo, error)
}

// stopInfo is what a stopped stack leaves on disk.
type stopInfo struct {
	// primarySeqs and followerSeqs are the per-shard replication sequence
	// numbers recovered from each side's journal (followerSeqs is nil
	// without replication).
	primarySeqs, followerSeqs []int64
	journalBytes              int64
}

// proc is one kradd child process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func startProc(bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		_ = logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM (kradd drains and exits) and waits; a process that
// has not exited after the grace period is killed and waited for.
func (p *proc) stop(grace time.Duration) error {
	select {
	case <-p.done:
		return fmt.Errorf("kradd exited early: %v", p.err)
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		// kradd installs its SIGTERM handler only after /readyz turns 200,
		// so a daemon stopped right after start-up (the set-up boots) can
		// die of the signal itself instead of draining. It holds no work
		// then, so that exit is a normal stop.
		var ee *exec.ExitError
		if errors.As(p.err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return p.err
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("kradd did not exit within %v of SIGTERM", grace)
	}
}

// kill stops the process without a drain, for error paths.
func (p *proc) kill() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// procCPUSeconds is the CPU time a live process has used, user and
// system: the sum over its threads of the nanosecond run time in
// /proc/<pid>/task/*/schedstat. (utime and stime in /proc/<pid>/stat
// count 10 ms ticks, too coarse to resolve a few percent in a segment.)
func procCPUSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%d/task", pid)
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// hostTimes reads the machine's cumulative CPU time from the first line
// of /proc/stat, in clock ticks: steal (the time the host took from this
// machine's virtual CPUs) and the total over every state.
func hostTimes() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// procHWMMB reads VmHWM (peak resident set) of a live process.
func procHWMMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// daemon is the real kradd binary booted for one run (plus its -follow
// standby on replicated workloads).
type daemon struct {
	addr                string
	primary, follower   *proc
	primaryDir, follDir string
	shards              int
	client              *http.Client
	pprof               bool
}

// bootDaemon starts kradd with the workload's flags in a fresh
// directory under runDir and waits until it is ready: /readyz 200 and,
// with replication, the standby connected. It returns the set-up time,
// from process start to ready.
func bootDaemon(bin string, w *workload, runDir string, client *http.Client, pprof bool) (*daemon, float64, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, 0, err
	}
	fairPath := filepath.Join(runDir, "queues.conf")
	if w.flags.FairConfig != "" {
		if err := os.WriteFile(fairPath, []byte(w.flags.FairConfig), 0o644); err != nil {
			return nil, 0, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{addr: addr, primaryDir: filepath.Join(runDir, "journal"), shards: max(1, w.flags.Shards), client: client, pprof: pprof}
	args := append(w.flags.args(fairPath), "-addr", addr, "-journal-dir", d.primaryDir)
	if pprof {
		args = append(args, "-pprof")
	}
	start := time.Now()
	if w.flags.Replicate {
		followHTTP, err1 := freeAddr()
		repAddr, err2 := freeAddr()
		if err := errors.Join(err1, err2); err != nil {
			return nil, 0, err
		}
		d.follDir = filepath.Join(runDir, "follower")
		fargs := append(w.flags.args(fairPath), "-addr", followHTTP, "-journal-dir", d.follDir, "-follow", repAddr)
		if d.follower, err = startProc(bin, fargs, filepath.Join(runDir, "follower.log")); err != nil {
			return nil, 0, err
		}
		args = append(args, "-replicate-to", repAddr)
	}
	if d.primary, err = startProc(bin, args, filepath.Join(runDir, "kradd.log")); err != nil {
		d.killAll()
		return nil, 0, err
	}
	if err := waitReady(client, "http://"+addr, w.flags.Replicate, d.primary.done); err != nil {
		d.killAll()
		return nil, 0, fmt.Errorf("%w (log in %s)", err, runDir)
	}
	return d, time.Since(start).Seconds(), nil
}

// readyPoll is the /readyz polling interval. Set-up takes a few
// milliseconds, so a coarser poll would quantize setup_s.
const readyPoll = 100 * time.Microsecond

// waitReady polls /readyz until it answers 200 and, when replicated,
// /metrics reports the replication stream connected.
func waitReady(client *http.Client, base string, replicated bool, exited <-chan struct{}) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("kradd exited during start-up")
		default:
		}
		if code, _, err := get(client, base+"/readyz"); err == nil && code == http.StatusOK {
			if !replicated {
				return nil
			}
			if m, err := scrape(client, base); err == nil && m["krad_replicate_connected"] == 1 {
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return errors.New("kradd not ready within 30s")
}

func (d *daemon) base() string { return "http://" + d.addr }

func (d *daemon) cpuSeconds() (float64, error) {
	c, err := procCPUSeconds(d.primary.cmd.Process.Pid)
	if err != nil || d.follower == nil {
		return c, err
	}
	f, err := procCPUSeconds(d.follower.cmd.Process.Pid)
	return c + f, err
}

func (d *daemon) rssPeakMB() (float64, error) { return procHWMMB(d.primary.cmd.Process.Pid) }

// goStats reads the primary's Go runtime totals; ok is false unless the
// daemon was booted with -pprof.
func (d *daemon) goStats() (totalAlloc, gcCPU float64, ok bool, err error) {
	if !d.pprof {
		return 0, 0, false, nil
	}
	totalAlloc, gcCPU, err = memStats(d.client, d.base())
	return totalAlloc, gcCPU, err == nil, err
}

func (d *daemon) killAll() {
	for _, p := range []*proc{d.primary, d.follower} {
		if p != nil {
			p.kill()
		}
	}
}

func (d *daemon) stop() (stopInfo, error) {
	if d.follower != nil {
		if err := waitCaughtUp(d.client, d.base()); err != nil {
			d.killAll()
			return stopInfo{}, err
		}
	}
	// The primary stops first, so its sender streams the final records
	// before the standby goes away.
	errP := d.primary.stop(30 * time.Second)
	var errF error
	if d.follower != nil {
		errF = d.follower.stop(30 * time.Second)
	}
	if err := errors.Join(errP, errF); err != nil {
		return stopInfo{}, err
	}
	return readJournals(d.primaryDir, d.follDir, d.shards)
}

// waitCaughtUp waits until the primary reports no unacknowledged
// replication records.
func waitCaughtUp(client *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m, err := scrape(client, base)
		if err == nil && m["krad_replicate_lag_records"] == 0 && m["krad_replicate_connected"] == 1 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("replication did not catch up within 30s")
}

// readJournals recovers per-shard sequence numbers and the primary's
// journal size from the files a stopped stack left.
func readJournals(primaryDir, follDir string, shards int) (stopInfo, error) {
	var info stopInfo
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard-%03d.wal", i)
		recs, err := journal.ReadFile(filepath.Join(primaryDir, name))
		if err != nil {
			return info, err
		}
		info.primarySeqs = append(info.primarySeqs, journal.SeqAfter(recs))
		fi, err := os.Stat(filepath.Join(primaryDir, name))
		if err != nil {
			return info, err
		}
		info.journalBytes += fi.Size()
		if follDir != "" {
			recs, err := journal.ReadFile(filepath.Join(follDir, name))
			if err != nil {
				return info, err
			}
			info.followerSeqs = append(info.followerSeqs, journal.SeqAfter(recs))
		}
	}
	return info, nil
}

// get fetches a URL, returning the status code and body.
func get(client *http.Client, url string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads /metrics into a map keyed by series name with labels,
// e.g. `krad_shard_jobs_submitted_total{shard="2"}`.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	code, body, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// memStats reads TotalAlloc and GCCPUFraction from a -pprof daemon's
// heap profile header.
func memStats(client *http.Client, base string) (totalAlloc, gcCPU float64, err error) {
	code, body, err := get(client, base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("heap profile: HTTP %d", code)
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# GCCPUFraction = "); ok {
			gcCPU, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, errors.New("heap profile: MemStats header missing")
	}
	return totalAlloc, gcCPU, nil
}
