package mining

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestShardedApplyDeltaChainEquivalence: folding a full delta plus a
// chain of incrementals into a fresh sharded counter reproduces the
// source exactly — the WAL-replay primitive.
func TestShardedApplyDeltaChainEquivalence(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(41))
	src, err := NewShardedGammaCounter(s, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	since := uint64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 10+rng.Intn(20); i++ {
			if err := src.Add(randomRecord(s, rng)); err != nil {
				t.Fatal(err)
			}
		}
		d, err := src.DeltaSince(since)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		since = d.ToVersion
	}
	if src.N() != replica.N() {
		t.Fatalf("replica has %d records, want %d", replica.N(), src.N())
	}
	want := src.Snapshot().(*MaterializedGammaCounter)
	got := replica.Snapshot().(*MaterializedGammaCounter)
	countersEqual(t, want, got)
	// Version advanced with the applied records, so the replica mints
	// coherent snapshot versions of its own.
	if replica.Version() != uint64(replica.N()) {
		t.Fatalf("replica version %d, want %d", replica.Version(), replica.N())
	}
}

func TestShardedApplyDeltaRejectsFullOntoNonEmpty(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(43))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(full); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(full); err == nil {
		t.Fatal("full delta applied twice — double count accepted")
	}
	if err := dst.ApplyDelta(nil); err == nil {
		t.Fatal("nil delta accepted")
	}
}

// TestReplicationStateRoundTrip: a counter rebuilt from saved state plus
// a restored replication identity serves the SAME incremental chain a
// pre-crash puller was on — same epoch, retained baseline honored, and
// every post-restore token above the pre-crash line.
func TestReplicationStateRoundTrip(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(47))
	src, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// A puller chains onto the counter.
	pulled, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	rs := src.ReplicationState()
	if rs.Epoch != src.DeltaEpoch() {
		t.Fatalf("captured epoch %d, want %d", rs.Epoch, src.DeltaEpoch())
	}
	if len(rs.Baselines) == 0 {
		t.Fatal("no baselines captured")
	}

	// "Crash": rebuild from persisted state, restore the identity.
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	scheme, err := NewGammaScheme(s, m)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadLiveCounter(&buf, scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreReplicationState(rs); err != nil {
		t.Fatal(err)
	}
	if restored.DeltaEpoch() != src.DeltaEpoch() {
		t.Fatalf("restored epoch %d, want %d", restored.DeltaEpoch(), src.DeltaEpoch())
	}

	// The puller's next pull against the RESTORED counter is incremental.
	for i := 0; i < 3; i++ {
		if err := restored.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := restored.DeltaSince(pulled.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if d.Full() {
		t.Fatal("restored counter forced a full resync despite a retained baseline")
	}
	if d.Records != 3 {
		t.Fatalf("incremental delta carries %d records, want 3", d.Records)
	}
	// Tokens minted after recovery clear the pre-crash line by the
	// recovery gap, so no pre-crash token can alias different state.
	if d.ToVersion <= pulled.ToVersion+tokenRecoveryGap/2 {
		t.Fatalf("post-recovery token %d not clear of pre-crash line %d", d.ToVersion, pulled.ToVersion)
	}
}

// TestRestoreTwiceFromOneStateMintsDistinctTokens: two boots from the
// same persisted state (one backup restored twice) must mint different
// token lines — otherwise a puller holding the first boot's token would
// chain incrementally onto the second boot's different records.
func TestRestoreTwiceFromOneStateMintsDistinctTokens(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(54))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := src.Save(&state); err != nil {
		t.Fatal(err)
	}
	rs := src.ReplicationState()
	boot := func() *CounterDelta {
		c, err := LoadLiveCounter(bytes.NewReader(state.Bytes()), src.CounterScheme(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RestoreReplicationState(rs); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
		d, err := c.DeltaSince(0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first, second := boot(), boot()
	if first.Generation != second.Generation {
		t.Fatal("restores from one state disagree on the epoch")
	}
	if first.ToVersion == second.ToVersion {
		t.Fatalf("both boots minted token %d for different records", first.ToVersion)
	}
}

// TestRestoreReplicationStateDropsInvalidBaselines: a baseline the
// recovered state does not dominate (its WAL tail died with the crash)
// is dropped — its puller full-resyncs — and never corrupts the ring.
func TestRestoreReplicationStateDropsInvalidBaselines(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(53))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.DeltaSince(0); err != nil {
		t.Fatal(err)
	}
	rs := src.ReplicationState()
	// Poison the baseline: counts the recovered counter does not hold.
	for i := range rs.Baselines {
		rs.Baselines[i].Records = 9
		for j := range rs.Baselines[i].Cells {
			rs.Baselines[i].Cells[j].Count += 1000
		}
	}
	restored, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := restored.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.RestoreReplicationState(rs); err != nil {
		t.Fatal(err)
	}
	// The poisoned baseline was not retained: a pull against its token
	// falls back to full, which is always safe.
	d, err := restored.DeltaSince(rs.Baselines[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() {
		t.Fatal("undominated baseline served incrementally")
	}
	// An epoch-less identity (no counter ever persisted one) is rejected.
	if err := restored.RestoreReplicationState(ReplicationState{}); err == nil {
		t.Fatal("zero epoch accepted")
	}
}

func TestDecodeStateWrapsCorruptPayloads(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	scheme, err := NewGammaScheme(s, m)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"zero-byte", nil},
		{"truncated", []byte{0x2c, 0xff}},
		{"garbage", []byte("this is not a gob stream at all")},
	}
	for _, tc := range cases {
		_, err := LoadLiveCounter(bytes.NewReader(tc.payload), scheme, 1)
		if err == nil {
			t.Fatalf("%s payload accepted", tc.name)
		}
		if !errors.Is(err, ErrCorruptState) {
			t.Fatalf("%s payload error %v does not wrap ErrCorruptState", tc.name, err)
		}
	}
	// A VALID payload under the wrong scheme is a contract mismatch, not
	// corruption — the distinction the CLI error message relies on.
	var buf bytes.Buffer
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mask, err := SchemeForContract(SchemeMask, s, 19)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadLiveCounter(&buf, mask, 1)
	if err == nil {
		t.Fatal("cross-scheme restore accepted")
	}
	if errors.Is(err, ErrCorruptState) {
		t.Fatalf("scheme mismatch %v misreported as corruption", err)
	}
	if !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("mismatch error %q does not explain the scheme conflict", err)
	}
}
