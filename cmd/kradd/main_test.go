package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSignalDrains builds the real kradd binary and SIGTERMs it at the two
// startup instants a supervisor can hit: just as /readyz turns 200, and
// while the journal is still replaying (/healthz already answers). Both
// must exit 0 through the drain path — "shutting down" then "bye" — not
// die on the default signal disposition.
func TestSignalDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the kradd binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kradd")
	if out, err := exec.Command("go", "build", "-o", bin, "krad/cmd/kradd").CombinedOutput(); err != nil {
		t.Fatalf("build kradd: %v\n%s", err, out)
	}
	jdir := filepath.Join(dir, "journal")
	args := []string{"-k", "1", "-caps", "4", "-queue", "100000",
		"-journal-dir", jdir, "-fsync", "interval", "-snapshot-every", "0"}

	t.Run("after-ready", func(t *testing.T) {
		d := startDaemon(t, bin, args)
		d.waitStatus(t, "/readyz", http.StatusOK)
		d.signalAndWait(t)
	})

	// Give the next start something to replay: a few thousand journaled
	// admissions, drained to completion.
	d := startDaemon(t, bin, args)
	d.waitStatus(t, "/readyz", http.StatusOK)
	batch := `{"jobs":[` + strings.TrimSuffix(strings.Repeat(`{"graph":{"k":1,"categories":[1,1]}},`, 32), ",") + `]}`
	for i := 0; i < 100; i++ {
		resp, err := http.Post(d.base+"/v1/jobs/batch", "application/json", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	d.signalAndWait(t)

	t.Run("during-replay", func(t *testing.T) {
		d := startDaemon(t, bin, args)
		d.waitStatus(t, "/healthz", http.StatusOK)
		d.signalAndWait(t)
	})
}

type daemon struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer // stderr; read only after Wait
}

func startDaemon(t *testing.T, bin string, args []string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
	})
	return d
}

// waitStatus polls path until it answers want, as tightly as the client
// allows, so the signal that follows lands right at the transition.
func (d *daemon) waitStatus(t *testing.T, path string, want int) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := client.Get(d.base + path); err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never answered %d", path, want)
}

func (d *daemon) signalAndWait(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		t.Fatalf("kradd did not exit within 30s of SIGTERM\n%s", &d.log)
	}
	if err != nil {
		t.Fatalf("kradd exited with %v, want 0 via the drain path\n%s", err, &d.log)
	}
	out := d.log.String()
	if !strings.Contains(out, "shutting down") || !strings.HasSuffix(out, "bye\n") {
		t.Fatalf("kradd exited 0 without draining\n%s", out)
	}
}
