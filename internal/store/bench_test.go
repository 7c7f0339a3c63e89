package store

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mining"
)

// stateBytesObserver keeps the serialized state size of the last
// checkpoint.
type stateBytesObserver struct{ stateBytes int }

func (o *stateBytesObserver) ObserveAppend(int, int, time.Duration, time.Duration, error) {}
func (o *stateBytesObserver) ObserveCheckpoint(n int, _ time.Duration, _ error)           { o.stateBytes = n }
func (o *stateBytesObserver) ObserveWALSize(int64)                                        {}
func (o *stateBytesObserver) ObserveRecovery(int, bool, error)                            {}

// censusMaskCounter ingests n census records, perturbed under MASK at
// γ = 19, into a counter of the given shard count.
func censusMaskCounter(b *testing.B, n, shards int) (*mining.ShardedCounter, mining.CounterScheme) {
	b.Helper()
	schema := dataset.CensusSchema()
	scheme, err := mining.SchemeForContract(mining.SchemeMask, schema, 19)
	if err != nil {
		b.Fatal(err)
	}
	mask := scheme.(*mining.MaskCounterScheme).Mask()
	db, err := dataset.GenerateCensus(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := mining.NewShardedCounter(scheme, shards)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	batch := make([][]mining.Item, 0, 4096)
	for i, rec := range db.Records {
		row, err := mask.PerturbRecord(rec, rng)
		if err != nil {
			b.Fatal(err)
		}
		var items []mining.Item
		for j, a := range schema.Attrs {
			for v := 0; v < a.Cardinality(); v++ {
				if row&(1<<uint(mask.Mapping.Offsets[j]+v)) != 0 {
					items = append(items, mining.Item{Attr: j, Value: v})
				}
			}
		}
		batch = append(batch, items)
		if len(batch) == cap(batch) || i == len(db.Records)-1 {
			if err := c.IngestBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return c, scheme
}

// BenchmarkStoreCheckpointRecover measures the store's two whole-state
// costs on a census MASK counter of 2^19 perturbed records over 2
// shards: one Checkpoint of the attached counter (checkpoint-ms), and a
// restart, Recover plus the boot checkpoint Attach writes (recover-ms).
// state-bytes is the serialized counter state a checkpoint writes.
//
//	go test -run xxx -bench StoreCheckpointRecover -benchtime 5x ./internal/store/
func BenchmarkStoreCheckpointRecover(b *testing.B) {
	counter, scheme := censusMaskCounter(b, 1<<19, 2)
	var checkpoint, recovery time.Duration
	obs := &stateBytesObserver{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(b.TempDir(), "store")
		if err != nil {
			b.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		st.SetObserver(obs)
		if err := st.Attach(counter); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		checkpoint += time.Since(t0)
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}

		t0 = time.Now()
		st, err = Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		recovered, err := st.Recover(scheme, 2)
		if err != nil || recovered == nil || recovered.N() != counter.N() {
			b.Fatalf("recover: %v", err)
		}
		if err := st.Attach(recovered); err != nil {
			b.Fatal(err)
		}
		recovery += time.Since(t0)
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
	b.ReportMetric(float64(checkpoint.Microseconds())/1e3/float64(b.N), "checkpoint-ms")
	b.ReportMetric(float64(recovery.Microseconds())/1e3/float64(b.N), "recover-ms")
	b.ReportMetric(float64(obs.stateBytes), "state-bytes")
}
