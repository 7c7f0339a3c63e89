package store

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
)

// goldenStore describes a committed store directory testdata/<name>
// (testdata/<name>.json): the shard count it was written with, the
// record count, delta epoch and tokens of its counter, and the estimates
// the counter answered for 32 filters when it was written.
type goldenStore struct {
	Records     int
	Shards      int
	Epoch       uint64
	PullerToken uint64
	CkptToken   uint64
	WALToken    uint64
	Filters     [][]mining.Item
	Estimates   []mining.PointEstimate
}

// loadGoldenStore copies testdata/<name> into a fresh directory and
// returns it with its description and the census MASK scheme it was
// written under.
func loadGoldenStore(t *testing.T, name string) (goldenStore, string, mining.CounterScheme) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenStore
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", name, "*"))
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
	return g, dir, scheme
}

// checkGoldenEstimates asserts that c answers the golden's 32 filters
// exactly as the golden's counter did.
func checkGoldenEstimates(t *testing.T, g goldenStore, c *mining.ShardedCounter) []mining.Itemset {
	t.Helper()
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
	return filters
}

// TestRecoverCheckpointV1: the current store recovers a version-1
// directory exactly — record count, the 32 filter estimates, the delta
// epoch — keeps the v1 checkpoint's own token (and the WAL tokens after
// it) as incremental positions, drops the older baselines (their
// pullers resync in full once), and mints tokens clear of the old line.
func TestRecoverCheckpointV1(t *testing.T) {
	g, dir, scheme := loadGoldenStore(t, "v1-mask")
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
	filters := checkGoldenEstimates(t, g, c)

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

	// Attaching writes a checkpoint in the current format that recovers
	// the same.
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

// TestRecoverCheckpointV2: the current store recovers testdata/v2-mask
// exactly. The directory was written by checkpoint format version 2 and
// WAL format version 1 (gob-struct cells): 600 perturbed census records
// over 2 shards, a WAL append at 300, a puller token at 350, a
// checkpoint at 500 whose journal tail carries the 50 and 150 records
// since those tokens, and a WAL append of the last 100. Attaching then
// writes a checkpoint in the current format, which recovers the same
// again.
func TestRecoverCheckpointV2(t *testing.T) {
	g, dir, scheme := loadGoldenStore(t, "v2-mask")
	want := g.Records
	recoverAndAttach := func() {
		t.Helper()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := st.Recover(scheme, g.Shards)
		if err != nil || c == nil {
			t.Fatalf("recover: %v", err)
		}
		if c.N() != want || c.DeltaEpoch() != g.Epoch {
			t.Fatalf("recovered %d records at epoch %d, want %d at %d", c.N(), c.DeltaEpoch(), want, g.Epoch)
		}
		checkGoldenEstimates(t, g, c)
		// The journal tail chains both old tokens onto the WAL tail.
		for _, token := range []uint64{g.PullerToken, g.CkptToken} {
			if d, err := c.DeltaSince(token); err != nil || d.Full() || uint64(d.Records) != uint64(want)-token {
				t.Fatalf("pull from token %d: %+v (err %v), want %d records", token, d, err, uint64(want)-token)
			}
		}
		if err := st.Attach(c); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recoverAndAttach()

	// The boot checkpoint is in the current format.
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*"+checkpointSuffix))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoints %v (err %v)", ckpts, err)
	}
	f, err := os.Open(ckpts[len(ckpts)-1])
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpointFile
	err = gob.NewDecoder(bufio.NewReader(f)).Decode(&ck)
	f.Close()
	if err != nil || ck.Version != checkpointVersion || len(ck.Identity.Journal) == 0 || len(ck.Replication.Journal) != 0 {
		t.Fatalf("boot checkpoint version %d, %d tail segments (err %v), want version %d",
			ck.Version, len(ck.Identity.Journal), err, checkpointVersion)
	}
	recoverAndAttach()
}
