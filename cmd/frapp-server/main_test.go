package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, serverConfig{addr: ":0", schema: "bogus", rho1: 0.05, rho2: 0.5}); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if err := run(ctx, serverConfig{addr: ":0", schema: "census", rho1: 0.5, rho2: 0.05}); err == nil {
		t.Fatal("inverted privacy spec accepted")
	}
	// The store opens before NewServer rejects the mode pair, so the
	// state directory must be a scratch one.
	if err := run(ctx, serverConfig{addr: ":0", schema: "census", rho1: 0.05, rho2: 0.5,
		state: filepath.Join(t.TempDir(), "state"), peers: "http://a:1"}); err == nil {
		t.Fatal("-state accepted together with -peers")
	}
	if err := run(ctx, serverConfig{addr: ":0", schema: "census", rho1: 0.05, rho2: 0.5,
		peers: "not-a-url"}); err == nil {
		t.Fatal("bad peer URL accepted")
	}
}

func TestRunRejectsCorruptState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{
		addr: ":0", schema: "census", rho1: 0.05, rho2: 0.5,
		state: path, shards: 4, mineWorkers: 1, jobTTL: time.Minute,
	}
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("corrupt state accepted")
	}
}

// freePort reserves a listen address for a short-lived test server.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitUp polls the server's stats endpoint until it answers.
func waitUp(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", base)
}

// submitOne pushes one (nominally perturbed) record through the public
// API, shaped per the advertised scheme.
func submitOne(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Scheme struct {
			Name string `json:"name"`
		} `json:"scheme"`
		Attributes []struct {
			Name       string   `json:"name"`
			Categories []string `json:"categories"`
		} `json:"attributes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var body []byte
	if sr.Scheme.Name == "" || sr.Scheme.Name == "gamma" {
		rec := map[string]string{}
		for _, a := range sr.Attributes {
			rec[a.Name] = a.Categories[0]
		}
		body, err = json.Marshal(rec)
	} else {
		rec := map[string][]string{}
		for _, a := range sr.Attributes {
			rec[a.Name] = []string{a.Categories[0]}
		}
		body, err = json.Marshal(rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %s", resp.Status)
	}
}

// statsRecords reads the record count off /v1/stats.
func statsRecords(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Records int `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return stats.Records
}

// TestRunGracefulShutdownPersistsStateOnce is the shutdown-audit
// regression: on the SIGTERM path (modeled by context cancellation —
// main wires the real signals to the same context), the accepted
// submissions must be persisted exactly once, and a restart from the
// persisted file must see them.
func TestRunGracefulShutdownPersistsStateOnce(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.gob")
	addr := freePort(t)
	cfg := serverConfig{
		addr: addr, schema: "census", rho1: 0.05, rho2: 0.5,
		state: statePath, shards: 2, mineWorkers: 1, jobTTL: time.Minute,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	base := "http://" + addr
	waitUp(t, base)

	// Submit one (nominally perturbed) record through the public API.
	submitOne(t, base)

	cancel() // the SIGTERM path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not shut down")
	}

	info, err := os.Stat(statePath)
	if err != nil {
		t.Fatalf("state not persisted: %v", err)
	}
	if !info.IsDir() {
		t.Fatal("-state did not become a store directory")
	}
	// The persisted store holds the complete final state — a restart
	// restores the submission (this guards the restore half of the
	// graceful path).
	addr2 := freePort(t)
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		done2 <- run(ctx2, serverConfig{
			addr: addr2, schema: "census", rho1: 0.05, rho2: 0.5,
			state: statePath, mineWorkers: 1, jobTTL: time.Minute,
		})
	}()
	base2 := "http://" + addr2
	waitUp(t, base2)
	if n := statsRecords(t, base2); n != 1 {
		t.Fatalf("restored server has %d records, want 1", n)
	}
	cancel2()
	select {
	case <-done2:
	case <-time.After(15 * time.Second):
		t.Fatal("restored server did not shut down")
	}
}

// TestRunListenFailureKeepsStoredState: a server that never managed to
// listen must not lose or clobber the records the store already holds
// (the directory-store successor of the shutdown-audit finding that a
// half-started server must not rewrite good state).
func TestRunListenFailureKeepsStoredState(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")

	// Seed the store with one record via a successful run.
	addr := freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serverConfig{
			addr: addr, schema: "census", rho1: 0.05, rho2: 0.5,
			state: stateDir, mineWorkers: 1, jobTTL: time.Minute,
		})
	}()
	waitUp(t, "http://"+addr)
	submitOne(t, "http://"+addr)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A boot that fails to listen must leave the store intact.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() // occupy the port so run's listen fails
	cfg := serverConfig{
		addr: l.Addr().String(), schema: "census", rho1: 0.05, rho2: 0.5,
		state: stateDir, mineWorkers: 1, jobTTL: time.Minute,
	}
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("run succeeded on an occupied port")
	}

	// The stored record is still there.
	addr2 := freePort(t)
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		done2 <- run(ctx2, serverConfig{
			addr: addr2, schema: "census", rho1: 0.05, rho2: 0.5,
			state: stateDir, mineWorkers: 1, jobTTL: time.Minute,
		})
	}()
	waitUp(t, "http://"+addr2)
	if n := statsRecords(t, "http://"+addr2); n != 1 {
		t.Fatalf("store holds %d records after failed boot, want 1", n)
	}
	cancel2()
	select {
	case <-done2:
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestRunFederationCoordinator boots two collector runs and one
// coordinator run end-to-end through the real flag surface.
func TestRunFederationCoordinator(t *testing.T) {
	var (
		cancels []context.CancelFunc
		dones   []chan error
	)
	startRun := func(cfg serverConfig) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx, cfg) }()
		cancels = append(cancels, cancel)
		dones = append(dones, done)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
		for _, d := range dones {
			select {
			case <-d:
			case <-time.After(15 * time.Second):
				t.Error("a run did not shut down")
			}
		}
	}()

	siteA, siteB := freePort(t), freePort(t)
	startRun(serverConfig{addr: siteA, schema: "census", rho1: 0.05, rho2: 0.5, mineWorkers: 1, jobTTL: time.Minute})
	startRun(serverConfig{addr: siteB, schema: "census", rho1: 0.05, rho2: 0.5, mineWorkers: 1, jobTTL: time.Minute})
	waitUp(t, "http://"+siteA)
	waitUp(t, "http://"+siteB)

	coordAddr := freePort(t)
	startRun(serverConfig{
		addr: coordAddr, schema: "census", rho1: 0.05, rho2: 0.5, mineWorkers: 1, jobTTL: time.Minute,
		peers:        fmt.Sprintf("http://%s,http://%s", siteA, siteB),
		syncInterval: 20 * time.Millisecond,
	})
	coordBase := "http://" + coordAddr
	waitUp(t, coordBase)

	// The coordinator exposes the federation block and refuses submits.
	resp, err := http.Get(coordBase + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Federation *struct {
			Peers []struct {
				URL string `json:"url"`
			} `json:"peers"`
		} `json:"federation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Federation == nil || len(stats.Federation.Peers) != 2 {
		t.Fatalf("coordinator stats federation block %+v", stats.Federation)
	}
	resp, err = http.Post(coordBase+"/v1/submit", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("coordinator submit returned %s, want 403", resp.Status)
	}
}

// TestRunSchemeFlag: -scheme selects the live perturbation scheme for
// the whole stack — advertised on /v1/schema and /v1/stats, with
// boolean-scheme submissions accepted on the wire — and unknown scheme
// names are rejected at startup.
func TestRunSchemeFlag(t *testing.T) {
	if err := run(context.Background(), serverConfig{addr: ":0", schema: "census",
		rho1: 0.05, rho2: 0.5, scheme: "rot13"}); err == nil {
		t.Fatal("unknown -scheme accepted")
	}

	addr := freePort(t)
	cfg := serverConfig{
		addr: addr, schema: "census", rho1: 0.05, rho2: 0.5,
		scheme: "mask", shards: 2, mineWorkers: 1, jobTTL: time.Minute,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	base := "http://" + addr
	waitUp(t, base)

	resp, err := http.Get(base + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Scheme struct {
			Name  string  `json:"name"`
			MaskP float64 `json:"mask_p"`
		} `json:"scheme"`
		Attributes []struct {
			Name       string   `json:"name"`
			Categories []string `json:"categories"`
		} `json:"attributes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Scheme.Name != "mask" || !(sr.Scheme.MaskP > 0.5 && sr.Scheme.MaskP < 1) {
		t.Fatalf("advertised scheme %+v, want mask with p in (0.5,1)", sr.Scheme)
	}

	// A boolean-scheme submission: attribute -> asserted category list.
	sub := map[string][]string{
		sr.Attributes[0].Name: {sr.Attributes[0].Categories[0], sr.Attributes[0].Categories[1]},
		sr.Attributes[1].Name: {sr.Attributes[1].Categories[0]},
	}
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("mask submit returned %s", sresp.Status)
	}

	stats, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Scheme  string `json:"scheme"`
		Records int    `json:"records"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if st.Scheme != "mask" || st.Records != 1 {
		t.Fatalf("stats %+v, want scheme=mask records=1", st)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunOpsEndpoints: -ops-addr serves metrics, health, readiness, and
// pprof on a listener separate from the data plane, and the scrape must
// parse and carry the core instrument families.
func TestRunOpsEndpoints(t *testing.T) {
	addr, opsAddr := freePort(t), freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serverConfig{
			addr: addr, schema: "census", rho1: 0.05, rho2: 0.5,
			mineWorkers: 1, jobTTL: time.Minute, opsAddr: opsAddr,
		})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	waitUp(t, "http://"+addr)
	submitOne(t, "http://"+addr)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + opsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d, want 200 (no peers, recovery done)", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline = %d", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	expo, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatalf("scrape unparseable: %v", err)
	}
	for _, fam := range []string{
		"frapp_http_requests_total",
		"frapp_http_request_duration_seconds",
		"frapp_ingest_records_total",
		"frapp_jobs_queue_depth",
		"frapp_uptime_seconds",
	} {
		if _, ok := expo.Types[fam]; !ok {
			t.Errorf("scrape missing family %s", fam)
		}
	}
}
