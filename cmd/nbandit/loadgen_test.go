package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"netbandit/internal/serve"
)

// serveDir hosts a decision service over dir on a loopback listener and
// returns its host:port plus a function that shuts it down cleanly.
func serveDir(t *testing.T, dir string) (addr string, stop func()) {
	t.Helper()
	srv, err := serve.New(serve.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return strings.TrimPrefix(ts.URL, "http://"), func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestLoadgenRefusesForeignInstances: a data dir whose loadgen-* ids
// already hold env-mode instances must fail a client-mode run instead of
// letting it ride on instances that never ask for feedback. Re-running
// the same spec still rides on, and client mode on a fresh dir passes
// its feedback check.
func TestLoadgenRefusesForeignInstances(t *testing.T) {
	dir := t.TempDir()
	addr, stop := serveDir(t, dir)
	envRun := []string{"-addr", addr, "-instances", "2", "-workers", "2", "-mode", "env", "-duration", "200ms"}
	if err := runLoadgen(envRun); err != nil {
		t.Fatal(err)
	}
	stop()

	addr, stop = serveDir(t, dir)
	defer stop()
	envRun[1] = addr
	if err := runLoadgen(envRun); err != nil {
		t.Fatalf("same-spec rerun must ride on the restored instances: %v", err)
	}
	clientRun := []string{"-addr", addr, "-instances", "2", "-workers", "2", "-mode", "client", "-duration", "200ms"}
	err := runLoadgen(clientRun)
	if err == nil || !strings.Contains(err.Error(), "spec_hash") {
		t.Fatalf("client-mode run over env-mode instances: err = %v, want a spec_hash mismatch", err)
	}

	fresh, stopFresh := serveDir(t, t.TempDir())
	defer stopFresh()
	clientRun[1] = fresh
	if err := runLoadgen(clientRun); err != nil {
		t.Fatalf("client-mode run on a fresh dir: %v", err)
	}
}
