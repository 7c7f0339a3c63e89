// Interactive queries against the collection service: clients perturb
// locally and submit over HTTP, then ask the server reconstructed
// count/proportion questions — "how many respondents are young males?"
// — and get point estimates with 95% confidence intervals, answered in
// O(#filters) histogram lookups from the live counter (the server
// stores no records to scan). Because the example generates the
// population itself, it can show the ground truth next to each
// estimate and check the interval actually brackets it.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"

	frapp "repro"
)

var nClients = exampleN(40000)

func main() {
	schema := frapp.CensusSchema()
	priv := frapp.PrivacySpec{Rho1: 0.05, Rho2: 0.50} // γ = 19

	server, err := frapp.NewCollectionServer(schema, priv, frapp.WithQueryLimit(256))
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	client, err := frapp.NewCollectionClient(ts.URL, frapp.WithHTTPClient(ts.Client()))
	if err != nil {
		log.Fatal(err)
	}
	population, err := frapp.GenerateCensus(nClients, 7)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := client.SubmitBatch(population.Records, rng); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d perturbed submissions\n", server.N())

	// One batch of conjunctive filters, arity 0 through 3.
	filters := []frapp.QueryFilter{
		{},
		{"sex": "Male"},
		{"age": "(15-35]", "sex": "Male"},
		{"age": "(15-35]", "sex": "Female", "native-country": "United-States"},
	}
	resp, err := client.QueryAll(filters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("response over %d records, exact for snapshot version %d\n\n",
		resp.Records, resp.SnapshotVersion)

	for i, est := range resp.Estimates {
		truth := trueCount(population, schema, filters[i])
		bracket := "MISS"
		if truth >= est.Lo && truth <= est.Hi {
			bracket = "ok"
		}
		fmt.Printf("%-62s  est %8.0f ± %5.0f  CI [%8.0f, %8.0f]  truth %6.0f  %s\n",
			describe(filters[i]), est.Count, est.StdErr, est.Lo, est.Hi, truth, bracket)
	}

	// The same estimator is available in process, straight over a live
	// counter, without the HTTP layer (frapp.NewLiveCounterQueryEngine);
	// the service path above is that engine wired to the live ingestion
	// counter.
}

// describe renders a filter for the table.
func describe(f frapp.QueryFilter) string {
	if len(f) == 0 {
		return "(all records)"
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

// trueCount scans the ORIGINAL (pre-perturbation) population — which
// only this example has; the server never does.
func trueCount(db *frapp.Database, schema *frapp.Schema, f frapp.QueryFilter) float64 {
	var items []frapp.Item
	for j, a := range schema.Attrs {
		if cat, ok := f[a.Name]; ok {
			items = append(items, frapp.Item{Attr: j, Value: a.CategoryIndex(cat)})
		}
	}
	set, err := frapp.NewItemset(items...)
	if err != nil {
		log.Fatal(err)
	}
	var c float64
	for _, rec := range db.Records {
		if set.Supports(rec) {
			c++
		}
	}
	return c
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
