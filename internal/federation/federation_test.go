package federation_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/service"
	"repro/internal/store"
)

var testSpec = core.PrivacySpec{Rho1: 0.05, Rho2: 0.50} // γ = 19

// stressScheme selects the perturbation scheme the federation suite
// runs under: CI drives a gamma/mask/cutpaste matrix through the
// FRAPP_STRESS_SCHEME environment variable; the default is gamma, which
// every non-matrix test assumes.
func stressScheme(t testing.TB) string {
	t.Helper()
	name := os.Getenv("FRAPP_STRESS_SCHEME")
	if name == "" {
		return mining.SchemeGamma
	}
	return name
}

func fedSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema("fed", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
		{Name: "d", Categories: []string{"d0", "d1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fedMatrix(t testing.TB, s *dataset.Schema) core.UniformMatrix {
	t.Helper()
	gamma, err := testSpec.Gamma()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewGammaDiagonal(s.DomainSize(), gamma)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// site is one collection server plus its HTTP front.
type site struct {
	srv *service.Server
	ts  *httptest.Server
}

// newDurableSite builds a site whose server keeps its state in a
// FileStore over dir, listening on addr ("127.0.0.1:0" for any port).
func newDurableSite(t testing.TB, schema *dataset.Schema, dir, addr string) *site {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.NewServer(schema, testSpec, service.WithScheme(stressScheme(t)), service.WithStore(st))
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	return &site{srv: srv, ts: ts}
}

// copyDir copies every file of a store directory — an operator's
// backup of a collector's state.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func newSite(t testing.TB, schema *dataset.Schema) *site {
	t.Helper()
	srv, err := service.NewServer(schema, testSpec, service.WithScheme(stressScheme(t)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &site{srv: srv, ts: ts}
}

// newCoordinator builds a coordinator server federated over the sites.
func newCoordinator(t testing.TB, schema *dataset.Schema, sites []*site, opts ...federation.Option) (*service.Server, *federation.Coordinator, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(sites))
	for i, s := range sites {
		urls[i] = s.ts.URL
	}
	srv, err := service.NewServer(schema, testSpec, service.WithScheme(stressScheme(t)),
		service.WithPeers(urls, opts...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, srv.Coordinator(), ts
}

func encodeRecord(schema *dataset.Schema, rec dataset.Record) service.RecordJSON {
	rj := make(service.RecordJSON, schema.M())
	for j, v := range rec {
		rj[schema.Attrs[j].Name] = schema.Attrs[j].Categories[v]
	}
	return rj
}

// submitBatch pushes records (treated as already perturbed) to a site.
func submitBatch(t testing.TB, schema *dataset.Schema, url string, recs []dataset.Record) {
	t.Helper()
	if len(recs) == 0 {
		return
	}
	batch := make([]service.RecordJSON, len(recs))
	for i, rec := range recs {
		batch[i] = encodeRecord(schema, rec)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/submit-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Drain before close so the shared client's connection goes back to
	// the keep-alive pool (TestSyncReusesConnections counts arrivals).
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit-batch returned %s", resp.Status)
	}
}

func randomRecords(schema *dataset.Schema, rng *rand.Rand, n int) []dataset.Record {
	recs := make([]dataset.Record, n)
	for i := range recs {
		rec := make(dataset.Record, schema.M())
		for j, a := range schema.Attrs {
			rec[j] = rng.Intn(a.Cardinality())
		}
		recs[i] = rec
	}
	return recs
}

// queryFilters builds a deterministic filter battery at arities 0..3:
// the empty filter plus samples of 1-, 2-, and 3-attribute conjunctions.
func queryFilters(schema *dataset.Schema, rng *rand.Rand) []service.QueryFilter {
	filters := []service.QueryFilter{{}}
	arity1 := [][]int{{0}, {1}, {2}, {3}}
	arity2 := [][]int{{0, 1}, {1, 2}, {0, 3}, {2, 3}}
	arity3 := [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}}
	for _, cols := range append(append(arity1, arity2...), arity3...) {
		f := make(service.QueryFilter, len(cols))
		for _, j := range cols {
			a := schema.Attrs[j]
			f[a.Name] = a.Categories[rng.Intn(a.Cardinality())]
		}
		filters = append(filters, f)
	}
	return filters
}

func queryAll(t testing.TB, url string, filters []service.QueryFilter) *service.QueryResponse {
	t.Helper()
	body, err := json.Marshal(struct {
		Filters []service.QueryFilter `json:"filters"`
	}{filters})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned %s", resp.Status)
	}
	var qr service.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr
}

// assertEquivalent checks the coordinator's estimates against a
// single-node server holding the union, to 1e-9, at every filter.
func assertEquivalent(t testing.TB, schema *dataset.Schema, coordURL, singleURL string, rng *rand.Rand) {
	t.Helper()
	filters := queryFilters(schema, rng)
	got := queryAll(t, coordURL, filters)
	want := queryAll(t, singleURL, filters)
	if got.Records != want.Records {
		t.Fatalf("coordinator records %d, single node %d", got.Records, want.Records)
	}
	for i := range filters {
		g, w := got.Estimates[i], want.Estimates[i]
		if math.Abs(g.Count-w.Count) > 1e-9 || math.Abs(g.StdErr-w.StdErr) > 1e-9 ||
			math.Abs(g.Lo-w.Lo) > 1e-9 || math.Abs(g.Hi-w.Hi) > 1e-9 || g.N != w.N {
			t.Fatalf("filter %d (%v): coordinator %+v, single node %+v", i, filters[i], g, w)
		}
	}
}

// TestFederationEquivalenceProperty is the acceptance property: for any
// partition of a dataset across k peer sites, the coordinator's merged
// estimates equal the single-node estimates on the union to 1e-9, at
// filter arities 0..3.
func TestFederationEquivalenceProperty(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3; trial++ {
		k := 1 + rng.Intn(3) // 1..3 peer sites
		t.Run(fmt.Sprintf("trial%d_k%d", trial, k), func(t *testing.T) {
			sites := make([]*site, k)
			for i := range sites {
				sites[i] = newSite(t, schema)
			}
			single := newSite(t, schema)
			_, coord, coordTS := newCoordinator(t, schema, sites)

			recs := randomRecords(schema, rng, 120+rng.Intn(200))
			// Random partition: every record to exactly one site.
			parts := make([][]dataset.Record, k)
			for _, rec := range recs {
				i := rng.Intn(k)
				parts[i] = append(parts[i], rec)
			}
			for i, part := range parts {
				submitBatch(t, schema, sites[i].ts.URL, part)
			}
			submitBatch(t, schema, single.ts.URL, recs)

			if err := coord.SyncAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, schema, coordTS.URL, single.ts.URL, rng)

			// Incremental growth at one site keeps the equivalence.
			more := randomRecords(schema, rng, 60)
			submitBatch(t, schema, sites[rng.Intn(k)].ts.URL, more)
			submitBatch(t, schema, single.ts.URL, more)
			if err := coord.SyncAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, schema, coordTS.URL, single.ts.URL, rng)
		})
	}
}

// TestFederationPeerRestoreNeverRegresses is the rollback half of the
// acceptance property: a peer restarted mid-sync from an older backup
// of its state directory comes back behind what the coordinator already
// merged, which forces a clean full re-pull of that peer — the global
// view re-converges to the true union and never double-counts the
// records that survived the restore.
func TestFederationPeerRestoreNeverRegresses(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(43))
	dir := filepath.Join(t.TempDir(), "site0")
	sites := []*site{newDurableSite(t, schema, dir, "127.0.0.1:0"), newSite(t, schema)}
	_, coord, coordTS := newCoordinator(t, schema, sites)

	keepA := randomRecords(schema, rng, 80) // survives the restore
	lostA := randomRecords(schema, rng, 50) // submitted after the backup, lost
	afterA := randomRecords(schema, rng, 30)
	recsB := randomRecords(schema, rng, 70)

	submitBatch(t, schema, sites[0].ts.URL, keepA)
	submitBatch(t, schema, sites[1].ts.URL, recsB)
	if err := sites[0].srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	backup := filepath.Join(t.TempDir(), "site0-backup")
	copyDir(t, dir, backup)
	submitBatch(t, schema, sites[0].ts.URL, lostA)

	// Mid-sync: the coordinator merges the pre-restore view (including
	// the soon-to-be-lost records).
	if err := coord.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.Records != len(keepA)+len(lostA)+len(recsB) {
		t.Fatalf("pre-restore global %d records, want %d", st.Records, len(keepA)+len(lostA)+len(recsB))
	}

	// The restore: site 0 stops and restarts, at the same address, on
	// the backup, then collects different records.
	addr := sites[0].ts.Listener.Addr().String()
	sites[0].srv.Close()
	sites[0].ts.Close()
	sites[0] = newDurableSite(t, schema, backup, addr)
	if n := sites[0].srv.N(); n != len(keepA) {
		t.Fatalf("restored site holds %d records, want %d", n, len(keepA))
	}
	submitBatch(t, schema, sites[0].ts.URL, afterA)

	if err := coord.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Ground truth: a single node holding exactly the post-restore union.
	single := newSite(t, schema)
	submitBatch(t, schema, single.ts.URL, keepA)
	submitBatch(t, schema, single.ts.URL, afterA)
	submitBatch(t, schema, single.ts.URL, recsB)
	assertEquivalent(t, schema, coordTS.URL, single.ts.URL, rng)

	// The re-pull was a full resync, visible in the peer status.
	st = coord.Stats()
	for _, ps := range st.Peers {
		if ps.URL == sites[0].ts.URL {
			if ps.FullSyncs < 2 {
				t.Fatalf("restored peer full_syncs %d, want >= 2", ps.FullSyncs)
			}
			if !ps.Healthy {
				t.Fatal("restored peer marked unhealthy")
			}
		}
	}

	// Mining over the merged counter matches the single node too.
	mineURL := func(base string) *service.MineResponse {
		resp, err := http.Get(base + "/v1/mine?minsup=0.05")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine returned %s", resp.Status)
		}
		var mr service.MineResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		return &mr
	}
	got, want := mineURL(coordTS.URL), mineURL(single.ts.URL)
	if got.Records != want.Records || len(got.Itemsets) != len(want.Itemsets) {
		t.Fatalf("mine: coordinator %d records/%d itemsets, single %d/%d",
			got.Records, len(got.Itemsets), want.Records, len(want.Itemsets))
	}
	if len(got.VersionVector) != 2 {
		t.Fatalf("coordinator mine response version vector %v, want 2 peers", got.VersionVector)
	}
	if want.VersionVector != nil {
		t.Fatal("single node stamped a version vector")
	}
}

// TestFederationPeerRestoredTwiceFromOneBackup: restoring the same
// backup a second time must force a full re-pull again. Both boots
// start from identical persisted state, so only their token lines tell
// them apart; were those equal, the coordinator would chain its first-
// restore position incrementally onto the second restore's different
// records and silently serve the wrong union.
func TestFederationPeerRestoredTwiceFromOneBackup(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(44))
	dir := filepath.Join(t.TempDir(), "site0")
	sites := []*site{newDurableSite(t, schema, dir, "127.0.0.1:0"), newSite(t, schema)}
	_, coord, coordTS := newCoordinator(t, schema, sites)

	keepA := randomRecords(schema, rng, 80)
	recsB := randomRecords(schema, rng, 70)
	submitBatch(t, schema, sites[0].ts.URL, keepA)
	submitBatch(t, schema, sites[1].ts.URL, recsB)
	if err := sites[0].srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	backup := filepath.Join(t.TempDir(), "site0-backup")
	copyDir(t, dir, backup)

	var after []dataset.Record
	for restore := 0; restore < 2; restore++ {
		addr := sites[0].ts.Listener.Addr().String()
		sites[0].srv.Close()
		sites[0].ts.Close()
		copied := filepath.Join(t.TempDir(), "site0-restored")
		copyDir(t, backup, copied)
		sites[0] = newDurableSite(t, schema, copied, addr)
		// Same count both times: only the records differ.
		after = randomRecords(schema, rng, 30)
		submitBatch(t, schema, sites[0].ts.URL, after)
		if err := coord.SyncAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	single := newSite(t, schema)
	submitBatch(t, schema, single.ts.URL, keepA)
	submitBatch(t, schema, single.ts.URL, after)
	submitBatch(t, schema, single.ts.URL, recsB)
	assertEquivalent(t, schema, coordTS.URL, single.ts.URL, rng)
}

func TestFederationStatsAndVersionVector(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(47))
	sites := []*site{newSite(t, schema), newSite(t, schema)}
	_, coord, coordTS := newCoordinator(t, schema, sites)
	submitBatch(t, schema, sites[0].ts.URL, randomRecords(schema, rng, 20))
	submitBatch(t, schema, sites[1].ts.URL, randomRecords(schema, rng, 30))
	if err := coord.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	client, err := service.NewClient(coordTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := client.FederationStats()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Records != 50 || len(fs.Peers) != 2 || fs.Publishes == 0 {
		t.Fatalf("federation stats %+v", fs)
	}
	for _, ps := range fs.Peers {
		if !ps.Healthy || ps.Syncs == 0 || ps.Version == 0 {
			t.Fatalf("peer status %+v", ps)
		}
		if v, ok := fs.VersionVector[ps.URL]; !ok || v != ps.Version {
			t.Fatalf("version vector %v misses peer %+v", fs.VersionVector, ps)
		}
	}

	// Query responses on the coordinator are stamped with the vector.
	qr := queryAll(t, coordTS.URL, []service.QueryFilter{{}})
	if len(qr.VersionVector) != 2 {
		t.Fatalf("query version vector %v, want 2 peers", qr.VersionVector)
	}

	// A plain collector exposes no federation block.
	siteClient, err := service.NewClient(sites[0].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := siteClient.FederationStats(); err == nil {
		t.Fatal("collector served federation stats")
	}
}

func TestFederationUnreachablePeerBacksOffAndRecovers(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(53))
	up := newSite(t, schema)
	down := newSite(t, schema)
	submitBatch(t, schema, up.ts.URL, randomRecords(schema, rng, 25))
	submitBatch(t, schema, down.ts.URL, randomRecords(schema, rng, 10))
	downURL := down.ts.URL
	down.ts.Close() // unreachable from the start

	_, coord, _ := newCoordinator(t, schema, []*site{up, {srv: down.srv, ts: down.ts}})
	err := coord.SyncAll(context.Background())
	if err == nil {
		t.Fatal("sync of unreachable peer reported success")
	}

	// Partial failure still merged the healthy peer.
	st := coord.Stats()
	if st.Records != 25 {
		t.Fatalf("global records %d with one peer down, want 25", st.Records)
	}
	var downStatus *federation.PeerStatus
	for i := range st.Peers {
		if st.Peers[i].URL == downURL {
			downStatus = &st.Peers[i]
		}
	}
	if downStatus == nil || downStatus.Healthy || downStatus.ConsecutiveFailures == 0 || downStatus.LastError == "" {
		t.Fatalf("down peer status %+v", downStatus)
	}
}

func TestFederationFingerprintMismatchNeverMerges(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(59))
	// A site running a DIFFERENT privacy contract (different gamma):
	// its counts live under another distortion and must not merge.
	otherSpec := core.PrivacySpec{Rho1: 0.05, Rho2: 0.30}
	srv, err := service.NewServer(schema, otherSpec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	mismatched := &site{srv: srv, ts: ts}
	ok := newSite(t, schema)
	submitBatch(t, schema, mismatched.ts.URL, randomRecords(schema, rng, 40))
	submitBatch(t, schema, ok.ts.URL, randomRecords(schema, rng, 15))

	_, coord, _ := newCoordinator(t, schema, []*site{ok, mismatched})
	if err := coord.SyncAll(context.Background()); err == nil {
		t.Fatal("mismatched peer accepted")
	}
	st := coord.Stats()
	if st.Records != 15 {
		t.Fatalf("global records %d, want only the compatible site's 15", st.Records)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	schema := fedSchema(t)
	m := fedMatrix(t, schema)
	publish := func(mining.LiveCounter, map[string]uint64) error { return nil }
	cases := []struct {
		name  string
		peers []string
	}{
		{"no peers", nil},
		{"relative url", []string{"not-a-url"}},
		{"bad scheme", []string{"ftp://x"}},
		{"duplicate", []string{"http://a:1", "http://a:1"}},
	}
	scheme, err := mining.NewGammaScheme(schema, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if _, err := federation.NewCoordinator(scheme, tc.peers, publish); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := federation.NewCoordinator(scheme, []string{"http://a:1"}, nil); err == nil {
		t.Error("nil publish accepted")
	}
	if _, err := federation.NewCoordinator(nil, []string{"http://a:1"}, publish); err == nil {
		t.Error("nil scheme accepted")
	}
}

// TestFederationBackgroundSyncConverges exercises Start/Close: the
// background loops (tiny jittered interval) must pick up site growth
// without any explicit SyncAll.
func TestFederationBackgroundSyncConverges(t *testing.T) {
	schema := fedSchema(t)
	rng := rand.New(rand.NewSource(61))
	sites := []*site{newSite(t, schema), newSite(t, schema)}
	coordSrv, coord, _ := newCoordinator(t, schema, sites,
		federation.WithSyncInterval(5*time.Millisecond))
	submitBatch(t, schema, sites[0].ts.URL, randomRecords(schema, rng, 35))
	submitBatch(t, schema, sites[1].ts.URL, randomRecords(schema, rng, 15))
	coord.Start()
	defer coord.Close()
	deadline := time.Now().Add(10 * time.Second)
	for coordSrv.N() != 50 {
		if time.Now().After(deadline) {
			t.Fatalf("background sync never converged: %d records", coordSrv.N())
		}
		time.Sleep(5 * time.Millisecond)
	}
	coord.Close() // idempotent with the deferred close
}

// TestSyncReusesConnections guards the replicate client's keep-alive
// hygiene: the response body must be fully drained before close, or the
// transport abandons the connection and every sync pass re-handshakes.
// The test counts server-side connection arrivals across many pulls —
// one warm connection should carry them all.
func TestSyncReusesConnections(t *testing.T) {
	schema := fedSchema(t)
	srv, err := service.NewServer(schema, testSpec, service.WithScheme(stressScheme(t)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewUnstartedServer(srv.Handler())
	var newConns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	// Seed the peer so every pull carries a real delta payload to drain.
	rng := rand.New(rand.NewSource(41))
	submitBatch(t, schema, ts.URL, randomRecords(schema, rng, 200))

	coord, err := federation.NewCoordinator(srv.CounterScheme(), []string{ts.URL},
		func(mining.LiveCounter, map[string]uint64) error { return nil },
		federation.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	const passes = 20
	before := newConns.Load()
	for pass := 0; pass < passes; pass++ {
		// Grow the counter between passes so incremental deltas stay
		// non-empty (an always-empty body would mask a drain regression).
		submitBatch(t, schema, ts.URL, randomRecords(schema, rng, 10))
		if err := coord.SyncAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// The submit traffic rides http.DefaultClient's own keep-alive pool;
	// the replicate pulls ride ts.Client(). Two warm connections cover
	// both, plus slack for one re-dial.
	if opened := newConns.Load() - before; opened > 3 {
		t.Fatalf("%d sync passes opened %d new connections; replicate responses are not being drained for reuse", passes, opened)
	}
}

// TestSyncAllWaitsForPendingPublish: a SyncAll whose own pull finds
// nothing new still returns only once everything already pulled is
// published. One SyncAll pulls new records and blocks inside its
// publish; a second SyncAll must not return while that publish is
// pending.
func TestSyncAllWaitsForPendingPublish(t *testing.T) {
	schema := fedSchema(t)
	s := newSite(t, schema)
	rng := rand.New(rand.NewSource(43))
	submitBatch(t, schema, s.ts.URL, randomRecords(schema, rng, 20))

	var (
		mu        sync.Mutex
		published int // records of the last completed publish
		block     bool
	)
	entered, release := make(chan struct{}), make(chan struct{})
	coord, err := federation.NewCoordinator(s.srv.CounterScheme(), []string{s.ts.URL},
		func(c mining.LiveCounter, _ map[string]uint64) error {
			mu.Lock()
			wait := block
			block = false
			mu.Unlock()
			if wait {
				close(entered)
				<-release
			}
			mu.Lock()
			published = c.N()
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	submitBatch(t, schema, s.ts.URL, randomRecords(schema, rng, 5))
	mu.Lock()
	block = true
	mu.Unlock()
	first := make(chan error, 1)
	go func() { first <- coord.SyncAll(context.Background()) }()
	<-entered

	type result struct {
		published int
		err       error
	}
	second := make(chan result, 1)
	go func() {
		err := coord.SyncAll(context.Background())
		mu.Lock()
		defer mu.Unlock()
		second <- result{published, err}
	}()
	// A SyncAll that waits for the pending publish cannot return before
	// the release; give one that does not wait the time to return first.
	var got result
	select {
	case got = <-second:
		close(release)
	case <-time.After(200 * time.Millisecond):
		close(release)
		got = <-second
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.published != 25 {
		t.Fatalf("SyncAll returned with %d records published, want 25", got.published)
	}
}
