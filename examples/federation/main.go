// Federated collection across three independent sites. FRAPP perturbs
// at the data provider, so each site's counter is already privacy-safe
// — which means site counters merge additively with no extra privacy
// cost. This demo runs 3 collector sites and 1 coordinator: clients
// submit locally perturbed records to their nearest site, the
// coordinator pulls versioned counter deltas from every site and
// answers queries over the merged GLOBAL counter. Because the example
// generates the population itself, it checks that the global estimate's
// 95% confidence interval brackets the ground truth of the full
// population — something no single site could even phrase.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"

	frapp "repro"
)

var clientsPerSite = exampleN(15000)

func main() {
	schema := frapp.CensusSchema()
	priv := frapp.PrivacySpec{Rho1: 0.05, Rho2: 0.50} // γ = 19

	// Three independent collector sites.
	var (
		sites   []*frapp.CollectionServer
		siteTS  []*httptest.Server
		peerURL []string
	)
	for i := 0; i < 3; i++ {
		srv, err := frapp.NewCollectionServer(schema, priv)
		check(err)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		sites = append(sites, srv)
		siteTS = append(siteTS, ts)
		peerURL = append(peerURL, ts.URL)
	}

	// One coordinator serving the merged global view: WithPeers builds
	// its sync loop over the coordinator server's own scheme contract,
	// so the contracts cannot drift, and Close stops the loop.
	coordSrv, err := frapp.NewCollectionServer(schema, priv, frapp.WithPeers(peerURL))
	check(err)
	defer coordSrv.Close()
	coordTS := httptest.NewServer(coordSrv.Handler())
	defer coordTS.Close()

	// Each site's clients perturb locally and submit to their own site.
	population, err := frapp.GenerateCensus(3*clientsPerSite, 7)
	check(err)
	rng := rand.New(rand.NewSource(1))
	for i, ts := range siteTS {
		client, err := frapp.NewCollectionClient(ts.URL, frapp.WithHTTPClient(ts.Client()))
		check(err)
		part := population.Records[i*clientsPerSite : (i+1)*clientsPerSite]
		check(client.SubmitBatch(part, rng))
		fmt.Printf("site %d collected %d perturbed submissions\n", i, sites[i].N())
	}

	// One synchronous pull of every site (production uses the jittered
	// background loop via Coordinator().Start()).
	check(coordSrv.Coordinator().SyncAll(context.Background()))

	coordClient, err := frapp.NewCollectionClient(coordTS.URL, frapp.WithHTTPClient(coordTS.Client()))
	check(err)
	fs, err := coordClient.FederationStats()
	check(err)
	fmt.Printf("\ncoordinator merged %d records from %d sites (version vector %v)\n\n",
		fs.Records, len(fs.Peers), fs.VersionVector)

	// Global estimates with 95% CIs, checked against the ground truth of
	// the FULL population.
	filters := []frapp.QueryFilter{
		{},
		{"sex": "Male"},
		{"age": "(15-35]", "sex": "Male"},
		{"age": "(15-35]", "sex": "Female", "native-country": "United-States"},
	}
	showEstimates(coordClient, schema, population, filters)
}

// showEstimates prints global estimates next to the full-population
// ground truth only this demo has.
func showEstimates(client *frapp.CollectionClient, schema *frapp.Schema, population *frapp.Database, filters []frapp.QueryFilter) {
	resp, err := client.QueryAll(filters)
	check(err)
	for i, est := range resp.Estimates {
		truth := trueCount(population, schema, filters[i])
		bracket := "MISS"
		if truth >= est.Lo && truth <= est.Hi {
			bracket = "ok"
		}
		fmt.Printf("%-62s  est %8.0f ± %5.0f  CI [%8.0f, %8.0f]  truth %6.0f  %s\n",
			describe(filters[i]), est.Count, est.StdErr, est.Lo, est.Hi, truth, bracket)
	}
}

func describe(f frapp.QueryFilter) string {
	if len(f) == 0 {
		return "(all records, all sites)"
	}
	out := ""
	for k, v := range f {
		if out != "" {
			out += " & "
		}
		out += k + "=" + v
	}
	return out
}

// trueCount scans the ORIGINAL population — which only the demo has;
// no site and no coordinator ever sees a raw record.
func trueCount(db *frapp.Database, schema *frapp.Schema, f frapp.QueryFilter) float64 {
	var items []frapp.Item
	for j, a := range schema.Attrs {
		if cat, ok := f[a.Name]; ok {
			items = append(items, frapp.Item{Attr: j, Value: a.CategoryIndex(cat)})
		}
	}
	set, err := frapp.NewItemset(items...)
	check(err)
	var c float64
	for _, rec := range db.Records {
		if set.Supports(rec) {
			c++
		}
	}
	return c
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// exampleN returns def, unless the FRAPP_EXAMPLE_N environment variable
// overrides it — the examples smoke test shrinks runs to seconds with it.
func exampleN(def int) int {
	if s := os.Getenv("FRAPP_EXAMPLE_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}
