package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
)

// TestShardedSwapStaysOnOwner: in `serve -shards 2 -observe`, a
// fine-tuned version lives on the shard that owns its key. Observations
// for one key drive its owner's controller to a hot swap; from then on
// GET /v1/shards lists the key on the owner, at the swapped version,
// and never on the peer, which is sent nothing for that key.
func TestShardedSwapStaysOnOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("real-signal end-to-end test")
	}
	modelsDir := filepath.Join(t.TempDir(), "models")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTestModel(t, modelsDir)

	ready := make(chan string, 1)
	testHookServeReady = func(addr string) { ready <- addr }
	defer func() { testHookServeReady = nil }()
	served := make(chan error, 1)
	go func() {
		served <- runServe([]string{
			"-models", modelsDir,
			"-addr", "127.0.0.1:0",
			"-shards", "2",
			"-observe",
			"-finetune-min-samples", "2",
			"-finetune-interval", "20ms",
			"-rate-limit", "0",
			"-drain-timeout", "10s",
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve never became ready")
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, decode error %v", path, resp.StatusCode, err)
		}
	}

	// Observe sort/c3o until a shard reports a swap: that shard is the
	// key's owner, the only one the router forwards its observations to.
	owner := -1
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; owner < 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no shard swapped a fine-tuned model within 30s")
		}
		ob, _ := json.Marshal(api.ObserveRequest{PredictRequest: drainWire(2 + 2*(i%6)), RuntimeSec: 70 + float64(i%5)})
		resp, err := client.Post(base+"/v1/observe", "application/json", bytes.NewReader(ob))
		if err != nil {
			t.Fatalf("observe: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe status %d", resp.StatusCode)
		}
		var st api.ClusterStats
		getJSON("/v1/stats", &st)
		for _, sh := range st.Shards {
			if lc := sh.Stats.Lifecycle; lc != nil && lc.Swaps > 0 {
				owner = sh.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The swap is the owner's alone. The install and anything it could
	// set off finish within milliseconds, so a peer copy would show up
	// well inside this window.
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		var topo api.TopologyResponse
		getJSON("/v1/shards", &topo)
		if len(topo.Shards) != 2 {
			t.Fatalf("topology lists %d shards, want 2", len(topo.Shards))
		}
		for _, sh := range topo.Shards {
			var version uint64
			for _, m := range sh.Models {
				if m.Job == "sort" && m.Env == "c3o" {
					version = m.Version
				}
			}
			switch {
			case sh.ID == owner && version < 2:
				t.Fatalf("owner shard %d lists sort/c3o at v%d after its swap, want >= v2", sh.ID, version)
			case sh.ID != owner && version != 0:
				t.Fatalf("shard %d, not the owner, lists sort/c3o at v%d", sh.ID, version)
			}
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("runServe after SIGTERM = %v, want nil (clean drain)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain within 30s of SIGTERM")
	}
}
