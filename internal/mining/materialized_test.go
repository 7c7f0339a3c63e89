package mining

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

func TestMaterializedMatchesGammaCounter(t *testing.T) {
	db := buildSkewedDB(t, 20000, 40)
	sc := db.Schema
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewGammaPerturber(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}

	scan, err := NewGammaCounter(pdb, m)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range pdb.Records {
		if err := mat.Ingest(recordItems(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if mat.N() != pdb.N() || mat.Schema() != sc {
		t.Fatal("counter metadata wrong")
	}
	cands := []Itemset{
		{{0, 0}},
		{{1, 1}},
		{{0, 0}, {1, 0}},
		{{0, 1}, {2, 3}},
		{{0, 0}, {1, 0}, {2, 0}},
	}
	a, err := scan.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mat.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("candidate %s: scan %v vs materialized %v", cands[i].Key(), a[i], b[i])
		}
	}
	// Full Apriori must agree too.
	r1, err := Apriori(scan, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Apriori(mat, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := r1.All(), r2.All()
	if len(k1) != len(k2) {
		t.Fatalf("scan found %d, materialized %d", len(k1), len(k2))
	}
	for k, f := range k1 {
		g, ok := k2[k]
		if !ok || math.Abs(f.Support-g.Support) > 1e-9 {
			t.Fatalf("itemset %s differs", k)
		}
	}
}

func TestMaterializedValidation(t *testing.T) {
	db := buildSkewedDB(t, 10, 42)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	wrong, _ := core.NewGammaDiagonal(sc.DomainSize()+1, 19)
	if _, err := NewMaterializedGammaCounter(sc, wrong); !errors.Is(err, ErrMining) {
		t.Fatal("order mismatch accepted")
	}
	c, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	bad := Itemset{{Attr: 9, Value: 0}}
	if _, err := c.Supports([]Itemset{bad}); err == nil {
		t.Fatal("invalid candidate accepted")
	}
}

func TestMaterializedAttrCap(t *testing.T) {
	attrs := make([]dataset.Attribute, 17)
	for i := range attrs {
		attrs[i] = dataset.Attribute{
			Name:       string(rune('a' + i)),
			Categories: []string{"x", "y"},
		}
	}
	sc, err := dataset.NewSchema("wide", attrs)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if _, err := NewMaterializedGammaCounter(sc, m); !errors.Is(err, ErrMining) {
		t.Fatal("17-attribute schema accepted")
	}
}

func TestMaterializedConcurrentAddAndQuery(t *testing.T) {
	db := buildSkewedDB(t, 4000, 43)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers = 4
	per := db.N() / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for _, rec := range db.Records[lo : lo+per] {
				if err := c.Ingest(recordItems(rec)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w * per)
	}
	// Interleaved readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		cand := []Itemset{{{0, 0}}}
		for i := 0; i < 100; i++ {
			if c.N() == 0 {
				continue
			}
			if _, err := c.Supports(cand); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.N() != writers*per {
		t.Fatalf("ingested %d, want %d", c.N(), writers*per)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := buildSkewedDB(t, 2000, 44)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, err := NewShardedGammaCounter(sc, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	nBefore := snap.N()
	// Mutating the live counter must not affect the snapshot.
	if err := c.Add(dataset.Record{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if snap.N() != nBefore {
		t.Fatal("snapshot count changed after live Add")
	}
	cand := []Itemset{{{0, 0}}}
	a, err := snap.Supports(cand)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Add(dataset.Record{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := snap.Supports(cand)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatal("snapshot supports changed after live Adds")
	}
}
