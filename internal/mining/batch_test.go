package mining

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Batched-ingest contract suite: IngestBatch must be indistinguishable
// from a sequence of single-record Ingest calls (same counts, same
// version, same supports), must reject a batch with any invalid record
// while leaving the counter provably untouched, and must hold those
// properties for every scheme and under concurrency.

// batchChunks splits records into chunks of varying sizes (including
// size 1 and a chunk larger than the shard count) so the partition
// arithmetic is exercised at its edges.
func batchChunks(records [][]Item) [][][]Item {
	sizes := []int{1, 3, 7, 64, 256, 1000}
	var out [][][]Item
	for lo, i := 0, 0; lo < len(records); i++ {
		hi := lo + sizes[i%len(sizes)]
		if hi > len(records) {
			hi = len(records)
		}
		out = append(out, records[lo:hi])
		lo = hi
	}
	return out
}

// TestLiveSchemesIngestBatchMatchesSequential: for every scheme, a
// counter fed via IngestBatch in ragged chunks must agree exactly with
// a counter fed the same records one Ingest at a time — N, Version,
// Supports, and Estimates at arities 0..3.
func TestLiveSchemesIngestBatchMatchesSequential(t *testing.T) {
	db := buildSkewedDB(t, 3000, 181)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(181)))
			seq, err := NewShardedCounter(ls.scheme, 5)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewShardedCounter(ls.scheme, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range records {
				if err := seq.Ingest(rec); err != nil {
					t.Fatal(err)
				}
			}
			for _, chunk := range batchChunks(records) {
				if err := bat.IngestBatch(chunk); err != nil {
					t.Fatal(err)
				}
			}
			if seq.N() != bat.N() {
				t.Fatalf("N: sequential %d, batched %d", seq.N(), bat.N())
			}
			if seq.Version() != bat.Version() {
				t.Fatalf("Version: sequential %d, batched %d", seq.Version(), bat.Version())
			}
			seqSup, err := seq.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			batSup, err := bat.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			seqEst, _, err := seq.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			batEst, _, err := bat.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range probes {
				if math.Abs(seqSup[i]-batSup[i]) > 1e-9 {
					t.Errorf("probe %d: support sequential %g, batched %g", i, seqSup[i], batSup[i])
				}
				if math.Abs(seqEst[i].Count-batEst[i].Count) > 1e-9 || math.Abs(seqEst[i].StdErr-batEst[i].StdErr) > 1e-9 {
					t.Errorf("probe %d: estimate sequential %+v, batched %+v", i, seqEst[i], batEst[i])
				}
			}
		})
	}
}

// corruptBatch deep-copies records and corrupts the middle record with
// the given mutation, so the original perturbed stream stays valid.
func corruptBatch(records [][]Item, mutate func([]Item) []Item) [][]Item {
	out := make([][]Item, len(records))
	for i, rec := range records {
		out[i] = append([]Item(nil), rec...)
	}
	mid := len(out) / 2
	out[mid] = mutate(out[mid])
	return out
}

// TestIngestBatchRejectsInvalidAtomically: a batch containing one
// invalid record — mid-batch, after many valid ones — must fail with
// ErrMining and leave N, the snapshot version, and every support and
// estimate exactly unchanged. This is the regression test for the
// service layer's partial-ingest bug: atomicity lives in the counter,
// not in handler bookkeeping. Single-record Ingest shares the batch
// validator, so the same corrupt record fed on its own must be
// rejected the same way.
func TestIngestBatchRejectsInvalidAtomically(t *testing.T) {
	db := buildSkewedDB(t, 1200, 191)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	corruptions := []struct {
		name   string
		mutate func([]Item) []Item
	}{
		{"value-out-of-range", func(rec []Item) []Item {
			rec[0].Value = 1 << 20
			return rec
		}},
		{"attr-out-of-range", func(rec []Item) []Item {
			rec[0].Attr = schema.M() + 3
			return rec
		}},
		{"duplicate-item", func(rec []Item) []Item {
			return append(rec, rec[0])
		}},
	}
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(191)))
			ctr, err := NewShardedCounter(ls.scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctr.IngestBatch(records[:800]); err != nil {
				t.Fatal(err)
			}
			wantN, wantVer := ctr.N(), ctr.Version()
			wantSup, err := ctr.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, _, err := ctr.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			requireUnchanged := func(t *testing.T, what string) {
				t.Helper()
				if got := ctr.N(); got != wantN {
					t.Errorf("N after rejected %s: got %d, want %d", what, got, wantN)
				}
				if got := ctr.Version(); got != wantVer {
					t.Errorf("Version after rejected %s: got %d, want %d", what, got, wantVer)
				}
				gotSup, err := ctr.Supports(probes)
				if err != nil {
					t.Fatal(err)
				}
				gotEst, _, err := ctr.Estimates(probes)
				if err != nil {
					t.Fatal(err)
				}
				for i := range probes {
					if gotSup[i] != wantSup[i] || gotEst[i] != wantEst[i] {
						t.Errorf("probe %d changed after rejected %s: support %g estimate %+v, want %g %+v",
							i, what, gotSup[i], gotEst[i], wantSup[i], wantEst[i])
					}
				}
			}
			for _, cr := range corruptions {
				t.Run(cr.name, func(t *testing.T) {
					bad := corruptBatch(records[800:], cr.mutate)
					if err := ctr.IngestBatch(bad); !errors.Is(err, ErrMining) {
						t.Fatalf("IngestBatch with corrupt record: got %v, want ErrMining", err)
					}
					requireUnchanged(t, "batch")
					if err := ctr.Ingest(bad[len(bad)/2]); !errors.Is(err, ErrMining) {
						t.Fatalf("Ingest of corrupt record: got %v, want ErrMining", err)
					}
					requireUnchanged(t, "record")
				})
			}
			// An empty batch is a no-op, not an error, and must not
			// advance the version.
			if err := ctr.IngestBatch(nil); err != nil {
				t.Fatalf("IngestBatch(nil): %v", err)
			}
			if got := ctr.Version(); got != wantVer {
				t.Errorf("Version after empty batch: got %d, want %d", got, wantVer)
			}
		})
	}
}

// TestIngestBatchConcurrent: concurrent IngestBatch and single-record
// Ingest callers must account for every record exactly once, and
// SnapshotVersioned must keep its contract (the snapshot is at least
// as new as its version) while batches land mid-read.
func TestIngestBatchConcurrent(t *testing.T) {
	db := buildSkewedDB(t, 2000, 201)
	schema := db.Schema
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(201)))
			ctr, err := NewShardedCounter(ls.scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			const workers = 4
			per := len(records) / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(part [][]Item, batched bool) {
					defer wg.Done()
					if batched {
						for lo := 0; lo < len(part); lo += 97 {
							hi := lo + 97
							if hi > len(part) {
								hi = len(part)
							}
							if err := ctr.IngestBatch(part[lo:hi]); err != nil {
								t.Error(err)
								return
							}
						}
					} else {
						for _, rec := range part {
							if err := ctr.Ingest(rec); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(records[w*per:(w+1)*per], w%2 == 0)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					snap, ver := ctr.SnapshotVersioned()
					if uint64(snap.N()) < ver {
						t.Errorf("snapshot older than its version: N=%d version=%d", snap.N(), ver)
						return
					}
				}
			}()
			wg.Wait()
			<-done
			want := workers * per
			if got := ctr.N(); got != want {
				t.Errorf("N after concurrent ingest: got %d, want %d", got, want)
			}
			if got := ctr.Version(); got != uint64(want) {
				t.Errorf("Version after concurrent ingest: got %d, want %d", got, want)
			}
		})
	}
}

// TestIngestBatchAllocs: applying a prepared batch must cost O(1)
// allocations in the batch size — the prepare step owns the only
// per-batch buffers. 256 records must stay under a small constant
// budget for every scheme.
func TestIngestBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is not meaningful under -short")
	}
	db := buildSkewedDB(t, 256, 211)
	schema := db.Schema
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(211)))
			ctr, err := NewShardedCounter(ls.scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up so map growth in the boolean cores reaches steady
			// state before counting.
			for i := 0; i < 4; i++ {
				if err := ctr.IngestBatch(records); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := ctr.IngestBatch(records); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 16 {
				t.Errorf("IngestBatch of %d records: %.1f allocs/batch, want <= 16", len(records), allocs)
			}
		})
	}
}
