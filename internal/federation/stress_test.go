package federation_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/service"
)

// TestStressFederationSync runs 2 collector sites and 1 coordinator
// with the background sync loop on a tiny interval while submitters
// hammer both sites and readers hammer the coordinator — the race
// detector's view of the whole replication path (delta extraction,
// change journal, replica application, merge, counter swap). After
// quiescence the coordinator must converge to the exact union.
func TestStressFederationSync(t *testing.T) {
	schema := fedSchema(t)
	sites := []*site{newSite(t, schema), newSite(t, schema)}
	coordSrv, coord, coordTS := newCoordinator(t, schema, sites,
		federation.WithSyncInterval(2*time.Millisecond))
	coord.Start()
	defer coord.Close()

	const (
		submitters       = 4
		perSubmitter     = 120
		totalSubmissions = submitters * perSubmitter
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// One scheme-negotiating client per site: submissions are
			// perturbed under whatever scheme the matrix runs.
			clients := make([]*service.Client, len(sites))
			for i, site := range sites {
				c, err := service.NewClient(site.ts.URL, service.WithHTTPClient(site.ts.Client()))
				if err != nil {
					t.Error(err)
					return
				}
				clients[i] = c
			}
			for i := 0; i < perSubmitter; i++ {
				target := rng.Intn(len(sites))
				recs := randomRecords(schema, rng, 1)
				if err := clients[target].SubmitBatch(recs, rng); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + g))
	}

	// Readers: stats and queries against the coordinator while it swaps
	// counters underneath them. Before the first publish the collection
	// is empty (409); anything else non-OK is a failure.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			body, _ := json.Marshal(struct {
				Filters []service.QueryFilter `json:"filters"`
			}{[]service.QueryFilter{{}, {"a": "a0"}}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(coordTS.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
					t.Errorf("query returned %s", resp.Status)
				}
				var qr service.QueryResponse
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
						t.Error(err)
					} else if qr.Estimates[0].N != qr.Records {
						t.Errorf("estimate N %d != records %d", qr.Estimates[0].N, qr.Records)
					}
				}
				resp.Body.Close()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	// Quiesce: one deterministic final pass, then verify exact union.
	if err := coord.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if coordSrv.N() != totalSubmissions {
		t.Fatalf("coordinator has %d records, want %d", coordSrv.N(), totalSubmissions)
	}
	if got := sites[0].srv.N() + sites[1].srv.N(); got != totalSubmissions {
		t.Fatalf("sites hold %d records, want %d", got, totalSubmissions)
	}

	// The converged view answers queries over the full union, stamped
	// with both peers' replication positions.
	qr := queryAll(t, coordTS.URL, queryFilters(schema, rand.New(rand.NewSource(71))))
	if qr.Records != totalSubmissions {
		t.Fatalf("coordinator answers over %d records, want %d", qr.Records, totalSubmissions)
	}
	if len(qr.VersionVector) != len(sites) {
		t.Fatalf("version vector %v, want %d peers", qr.VersionVector, len(sites))
	}
	st := coord.Stats()
	if st.Records != totalSubmissions {
		t.Fatalf("federation stats records %d, want %d", st.Records, totalSubmissions)
	}
	for _, ps := range st.Peers {
		if !ps.Healthy {
			t.Fatalf("peer %s unhealthy after stress: %+v", ps.URL, ps)
		}
	}
}
