package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/store"
)

// writeTestModel trains a tiny model and writes it where DirLoader
// expects sort_c3o.model.
func writeTestModel(t *testing.T, dir string) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.PropertySize = 16
	cfg.EncodingDim = 3
	cfg.EncoderHidden = 6
	cfg.ScaleOutHidden = 8
	cfg.ScaleOutDim = 4
	cfg.PredictorHidden = 6
	cfg.PretrainEpochs = 25
	cfg.Seed = 1
	m, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	var samples []core.Sample
	for _, x := range []int{2, 4, 6, 8, 10, 12} {
		fx := float64(x)
		samples = append(samples, core.Sample{
			ScaleOut:   x,
			Essential:  drainProps(10000),
			Optional:   nil,
			RuntimeSec: 30 + 400/fx + 10*math.Log(fx) + 1.2*fx,
		})
	}
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatalf("Pretrain: %v", err)
	}
	if err := m.SaveFile(filepath.Join(dir, "sort_c3o.model")); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
}

func drainProps(sizeMB int) []encoding.Property {
	return []encoding.Property{
		{Name: "dataset_size_mb", Value: strconv.Itoa(sizeMB)},
		{Name: "dataset_characteristics", Value: "uniform"},
		{Name: "job_parameters", Value: "--iterations 100"},
		{Name: "node_type", Value: "m4.xlarge"},
	}
}

func drainWire(scaleOut int) api.PredictRequest {
	return api.PredictRequest{
		Job: "sort", Env: "c3o", ScaleOut: scaleOut,
		Essential: []api.Property{
			{Name: "dataset_size_mb", Value: "10000"},
			{Name: "dataset_characteristics", Value: "uniform"},
			{Name: "job_parameters", Value: "--iterations 100"},
			{Name: "node_type", Value: "m4.xlarge"},
		},
	}
}

// TestServeSIGTERMDrain drives the real serve entrypoint through its
// shutdown path: a server under live predict+observe traffic receives
// SIGTERM, must let every in-flight request finish, digest and seal the
// WAL, and return nil. Every observation the server acknowledged with
// a 2xx must be durable in the reopened store — which may hold, beyond
// those, only observations whose answer the client never got — and the
// reopened WAL must have nothing to repair.
func TestServeSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("real-signal end-to-end test")
	}
	root := t.TempDir()
	modelsDir := filepath.Join(root, "models")
	dataDir := filepath.Join(root, "data")
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
			"-observe",
			"-data-dir", dataDir,
			"-fsync", "never",
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

	// Live traffic: predicts and observes from a few workers until the
	// server stops accepting. Every 2xx observe is a durability promise
	// we check after the drain.
	var (
		wg          sync.WaitGroup
		acceptedObs atomic.Int64
		inDoubtObs  atomic.Int64
		okPredicts  atomic.Int64
	)
	stop := make(chan struct{})
	client := &http.Client{Timeout: 30 * time.Second}
	post := func(path string, body []byte) (int, bool) {
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, false // connection refused once the listener closes
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, true
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pb, _ := json.Marshal(drainWire(2 + (i % 6)))
				if code, up := post("/v1/predict", pb); !up {
					return
				} else if code == http.StatusOK {
					okPredicts.Add(1)
				}
				ob, _ := json.Marshal(api.ObserveRequest{
					PredictRequest: drainWire(2 + (i % 6)),
					RuntimeSec:     60 + float64(i%10),
				})
				code, up := post("/v1/observe", ob)
				if !up {
					// Neither acknowledged nor refused: the server may have
					// appended it and lost the answer with the connection
					// Shutdown closed.
					inDoubtObs.Add(1)
					return
				}
				if code >= 200 && code < 300 {
					acceptedObs.Add(1)
				}
			}
		}(w)
	}

	// Let traffic flow, then terminate the process the way an
	// orchestrator would.
	deadline := time.Now().Add(5 * time.Second)
	for okPredicts.Load() == 0 || acceptedObs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no traffic succeeded before SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With the rate limiter off and no load-control flag, the admission
	// gate is still on, and the first computed predict went through it.
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var stats api.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if lc := stats.LoadCtl; lc == nil || lc.Admitted+lc.Queued == 0 {
		t.Fatalf("stats load_ctl = %+v, want a gate that admitted the traffic", lc)
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
	close(stop)
	wg.Wait()
	t.Logf("drained with %d ok predicts, %d accepted observations", okPredicts.Load(), acceptedObs.Load())

	// The drained store reopens with a clean seal and holds every
	// acknowledged observation.
	st, err := store.Open(dataDir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	defer st.Close()
	if rb := st.StoreStats().RepairedBytes; rb != 0 {
		t.Fatalf("reopen repaired %d bytes, want 0 after a drained shutdown", rb)
	}
	var replayed, digests int64
	err = st.Replay(store.ReplayHandler{
		Observation: func(job, env string, s core.Sample, at time.Time) { replayed++ },
		Digest:      func(job, env string, fresh int, at time.Time) { digests++ },
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if acked, lost := acceptedObs.Load(), inDoubtObs.Load(); replayed < acked || replayed > acked+lost {
		t.Fatalf("store holds %d observations, want the %d the server acknowledged plus at most the %d whose answer was lost",
			replayed, acked, lost)
	}
	if digests == 0 {
		t.Fatal("drain wrote no digest marker despite pending observations")
	}
}

// TestServeSIGTERMAtReady: a SIGTERM that arrives the instant the port
// is bound — before the accept loop has even started — still gets the
// full drain: runServe returns nil and the store reopens with nothing
// to repair. With the handler installed after the listener, the same
// signal killed the process undrained.
func TestServeSIGTERMAtReady(t *testing.T) {
	if testing.Short() {
		t.Skip("real-signal end-to-end test")
	}
	root := t.TempDir()
	modelsDir := filepath.Join(root, "models")
	dataDir := filepath.Join(root, "data")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTestModel(t, modelsDir)

	testHookServeReady = func(string) {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Errorf("sending SIGTERM: %v", err)
		}
	}
	defer func() { testHookServeReady = nil }()
	served := make(chan error, 1)
	go func() {
		served <- runServe([]string{
			"-models", modelsDir,
			"-addr", "127.0.0.1:0",
			"-observe",
			"-data-dir", dataDir,
			"-fsync", "never",
			"-drain-timeout", "10s",
		})
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("runServe after SIGTERM at ready = %v, want nil (clean drain)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain within 30s of SIGTERM")
	}
	st, err := store.Open(dataDir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	defer st.Close()
	if rb := st.StoreStats().RepairedBytes; rb != 0 {
		t.Fatalf("reopen repaired %d bytes, want 0 after a drained shutdown", rb)
	}
}

// TestServeShardedSmoke drives the real serve entrypoint in sharded
// mode: -shards 2 must answer the identical /v1 wire contract, report
// the cluster stats schema, expose the topology endpoint, keep each
// shard's WAL in its own subdirectory, and drain cleanly on SIGTERM.
func TestServeShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-signal end-to-end test")
	}
	root := t.TempDir()
	modelsDir := filepath.Join(root, "models")
	dataDir := filepath.Join(root, "data")
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
			"-data-dir", dataDir,
			"-fsync", "never",
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

	// Predict answers the standard DTO through the router.
	pb, _ := json.Marshal(drainWire(4))
	resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader(pb))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	var pr api.PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || pr.Error != nil || pr.RuntimeSec <= 0 {
		t.Fatalf("predict status %d resp %+v (err %v)", resp.StatusCode, pr, err)
	}

	// Observes are accepted and routed to the key's owning shard.
	ob, _ := json.Marshal(api.ObserveRequest{PredictRequest: drainWire(4), RuntimeSec: 61})
	resp, err = client.Post(base+"/v1/observe", "application/json", bytes.NewReader(ob))
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		t.Fatalf("observe status %d", resp.StatusCode)
	}

	// Stats report the versioned cluster schema with one block per shard.
	resp, err = client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st api.ClusterStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.SchemaVersion != api.StatsSchemaVersion || len(st.Shards) != 2 {
		t.Fatalf("cluster stats schema %d with %d shards, want %d/2", st.SchemaVersion, len(st.Shards), api.StatsSchemaVersion)
	}

	// The topology endpoint names both shards.
	resp, err = client.Get(base + "/v1/shards")
	if err != nil {
		t.Fatalf("shards: %v", err)
	}
	var topo api.TopologyResponse
	err = json.NewDecoder(resp.Body).Decode(&topo)
	resp.Body.Close()
	if err != nil || len(topo.Shards) != 2 {
		t.Fatalf("topology %+v (err %v)", topo, err)
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

	// Each shard sealed its own store subdirectory.
	for i := 0; i < 2; i++ {
		sub := filepath.Join(dataDir, "shard-"+strconv.Itoa(i))
		if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
			t.Fatalf("shard store %s missing after drain (err %v)", sub, err)
		}
		sst, err := store.Open(sub, store.Options{Fsync: store.FsyncNever})
		if err != nil {
			t.Fatalf("reopening %s: %v", sub, err)
		}
		if rb := sst.StoreStats().RepairedBytes; rb != 0 {
			sst.Close()
			t.Fatalf("shard %d reopened with %d repaired bytes, want 0 after a drained shutdown", i, rb)
		}
		sst.Close()
	}
}
