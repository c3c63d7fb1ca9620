package main

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/daemon"
)

// startDaemon boots an in-process qcbenchd for -server tests and returns
// its base URL; the graceful drain runs in cleanup.
func startDaemon(t *testing.T, cfg daemon.Config) string {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {}
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		t.Fatalf("daemon.New: %v", err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatalf("daemon.Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	var once sync.Once
	t.Cleanup(func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("daemon.Serve: %v", err)
			}
		})
	})
	return "http://" + addr
}

// TestServerSweepByteIdentical is the remote-fidelity acceptance check at
// the CLI surface: the same figure sweep run locally and against a daemon
// produces byte-identical stdout, in both table and CSV form, noiseless
// and under each noise mode.
func TestServerSweepByteIdentical(t *testing.T) {
	base := startDaemon(t, daemon.Config{Parallelism: 2})
	sweep := []string{"-fig", "11", "-machines", "grid:rows=4,cols=4,name=Square-Lattice", "-trials", "1"}
	for _, knobs := range [][]string{
		nil,
		{"-noise", "e2q=0.002,tdec=0.001"},
		{"-noise", "e2q=0.002,tdec=0.001", "-noise-model", "montecarlo", "-noise-shots", "8"},
		{"-noise", "e2q=0.002,tdec=0.001", "-noise-route", "pure"},
	} {
		for _, form := range [][]string{nil, {"-csv"}} {
			args := append(append(append([]string{}, sweep...), knobs...), form...)
			local, _, err := runQ(t, args...)
			if err != nil {
				t.Fatalf("local sweep %v: %v", args, err)
			}
			remote, _, err := runQ(t, append([]string{"-server", base}, args...)...)
			if err != nil {
				t.Fatalf("remote sweep %v: %v", args, err)
			}
			if remote != local {
				t.Errorf("%v: remote stdout diverged from local:\nremote:\n%s\nlocal:\n%s", args, remote, local)
			}
		}
	}
}

// TestServerStockFigureMachines pins the FigMachineSpecs round-trip at the
// CLI: a -server sweep without -machines ships the figure's stock machine
// set as specs and still renders byte-identically to the local run.
func TestServerStockFigureMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig 11 sweep in -short mode")
	}
	base := startDaemon(t, daemon.Config{Parallelism: 0})
	args := []string{"-fig", "11", "-trials", "1"}
	local, _, err := runQ(t, args...)
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	remote, _, err := runQ(t, append([]string{"-server", base}, args...)...)
	if err != nil {
		t.Fatalf("remote sweep: %v", err)
	}
	if remote != local {
		t.Errorf("remote stock-machine sweep diverged from local:\nremote:\n%s\nlocal:\n%s", remote, local)
	}
}

// TestServerConflictingFlagsRejected pins the -server flag surface: knobs
// the daemon owns (cache, journal, pool size) are usage errors, not silent
// no-ops.
func TestServerConflictingFlagsRejected(t *testing.T) {
	url := "http://127.0.0.1:1"
	_, _, err := runQ(t, "-headline", "-server", url)
	wantUsageError(t, err, "-server only applies to -fig sweeps")
	_, _, err = runQ(t, "-fig", "11", "-server", url, "-cachedir", t.TempDir())
	wantUsageError(t, err, "daemon owns the result cache")
	_, _, err = runQ(t, "-fig", "11", "-server", url, "-resume", "j.journal")
	wantUsageError(t, err, "journals sweeps server-side")
	_, _, err = runQ(t, "-fig", "11", "-server", url, "-parallelism", "2")
	wantUsageError(t, err, "daemon sizes its own worker pool")
}

// TestServerUnreachableFails pins the failure surface: a dead server is a
// plain error (after the client's retry budget), not a hang or a zero
// table.
func TestServerUnreachableFails(t *testing.T) {
	_, _, err := runQ(t, "-fig", "11", "-trials", "1",
		"-machines", "grid:rows=4,cols=4,name=Square-Lattice",
		"-server", "http://127.0.0.1:1")
	if err == nil {
		t.Fatal("sweep against dead server succeeded")
	}
	if !strings.Contains(err.Error(), "connect") && !strings.Contains(err.Error(), "refused") {
		t.Errorf("dead-server error %q should mention the connection failure", err)
	}
}
