package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
)

// goldenV1 describes testdata/v1-mask: a MASK store directory written by
// the checkpoint format version 1 (full replication baselines) — 400
// census records over 2 shards, a puller token at 250 records, a
// checkpoint at 350 and a WAL append of the last 50 — with the values
// its counter answered when it was written.
type goldenV1 struct {
	Records     int
	Shards      int
	Epoch       uint64
	PullerToken uint64
	CkptToken   uint64
	WALToken    uint64
	Filters     [][]mining.Item
	Estimates   []mining.PointEstimate
}

// TestRecoverCheckpointV1: the current store recovers a version-1
// directory exactly — record count, the 32 filter estimates, the delta
// epoch — keeps the v1 checkpoint's own token (and the WAL tokens after
// it) as incremental positions, drops the older baselines (their
// pullers resync in full once), and mints tokens clear of the old line.
func TestRecoverCheckpointV1(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1-mask.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenV1
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "v1-mask", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden files: %v (err %v)", files, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scheme, err := mining.SchemeForContract(mining.SchemeMask, dataset.CensusSchema(), 19)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, err := st.Recover(scheme, g.Shards)
	if err != nil || c == nil {
		t.Fatalf("recover v1 directory: %v", err)
	}
	if c.N() != g.Records {
		t.Fatalf("recovered %d records, want %d", c.N(), g.Records)
	}
	if c.DeltaEpoch() != g.Epoch {
		t.Fatalf("epoch %d, want %d", c.DeltaEpoch(), g.Epoch)
	}
	filters := make([]mining.Itemset, len(g.Filters))
	for i, f := range g.Filters {
		filters[i] = f
	}
	ests, _, err := c.Estimates(filters)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 32 || len(g.Estimates) != 32 {
		t.Fatalf("%d estimates, golden %d, want 32", len(ests), len(g.Estimates))
	}
	for i := range ests {
		if ests[i] != g.Estimates[i] {
			t.Fatalf("filter %d: %+v, want %+v", i, ests[i], g.Estimates[i])
		}
	}

	// The pre-upgrade puller's baseline is gone: it resyncs in full.
	if d, err := c.DeltaSince(g.PullerToken); err != nil || !d.Full() {
		t.Fatalf("pre-upgrade baseline served incrementally (err %v)", err)
	}
	// The v1 checkpoint token still chains: its puller gets the WAL tail.
	d, err := c.DeltaSince(g.CkptToken)
	if err != nil || d.Full() || d.Records != g.Records-350 {
		t.Fatalf("pull from the v1 checkpoint token: %+v (err %v), want %d records", d, err, g.Records-350)
	}
	// New tokens clear every token of the old line by the recovery gap.
	if err := c.Ingest(filters[0]); err != nil {
		t.Fatal(err)
	}
	d, err = c.DeltaSince(g.WALToken)
	if err != nil || d.Full() || d.Records != 1 {
		t.Fatalf("pull from the v1 WAL token: full=%v records=%d (err %v), want 1", d.Full(), d.Records, err)
	}
	if d.ToVersion < g.WALToken+1<<32 {
		t.Fatalf("new token %d does not clear the old line %d", d.ToVersion, g.WALToken)
	}

	// Attaching writes a version-2 checkpoint that recovers the same.
	if err := st.Attach(c); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2, err := st2.Recover(scheme, 1)
	if err != nil || c2 == nil || c2.N() != g.Records+1 || c2.DeltaEpoch() != g.Epoch {
		t.Fatalf("recover after upgrade: %v", err)
	}
	if d, err := c2.DeltaSince(g.CkptToken); err != nil || d.Full() || d.Records != g.Records+1-350 {
		t.Fatalf("v1 checkpoint token lost across the upgraded checkpoint (err %v)", err)
	}
}
