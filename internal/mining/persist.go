package mining

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// ErrCorruptState marks a state payload that could not be decoded at
// all — truncated, zero-byte, or garbage bytes — as opposed to a valid
// payload saved under an incompatible scheme, schema, or version.
// Callers holding the file name should wrap this with the path and the
// operator's recovery options (restore a backup, or remove the file to
// start empty) instead of surfacing raw gob internals.
var ErrCorruptState = fmt.Errorf("%w: corrupt counter state", ErrMining)

// counterState is the serialized (scheme-tagged) form of a counter. The
// schema itself is NOT serialized — the loader supplies it (through the
// scheme contract) and the state is validated against it, so a state
// file can never silently reinterpret a different schema's counts.
// Scheme names the perturbation scheme, the scheme's parameters ride in
// the meta fields, and each shard carries its record count and its
// joint cells in index order (legacy gamma shards: subset histograms);
// saved shards fold modulo the live shard count. Version 4 writes the
// joint cells in the cell codec; version 3 wrote them as gob structs
// and is still read.
type counterState struct {
	Version    int
	Scheme     string
	SchemaName string
	M          int
	DomainSize int

	// Gamma parameters.
	MatrixN    int
	MatrixDiag float64
	MatrixOff  float64

	// Boolean-scheme parameters.
	Mb     int
	MaskP  float64
	CutK   int
	CutRho float64

	// One entry per shard.
	Shards []shardState
}

// shardState is one shard's counts: the record count and the joint
// cells.
type shardState struct {
	N int
	// Hists is the legacy gamma form, read only: the dense histogram of
	// every attribute subset, indexed by subset bitmask (Hists[0] unused).
	Hists [][]float64
	Joint CellList
	// Cells is version 3's form of Joint, read only.
	Cells []DeltaCell
}

// stateVersion is the version every state is written in. The loaders
// also read legacyStateVersion; versions 1 and 2 (pre-scheme gamma
// files) are no longer readable.
const (
	stateVersion       = 4
	legacyStateVersion = 3
)

// stateMeta fills the state header for a gamma core.
func (c *gammaCore) stateMeta() counterState {
	return counterState{
		Version:    stateVersion,
		Scheme:     SchemeGamma,
		SchemaName: c.schema.Name,
		M:          c.schema.M(),
		DomainSize: c.schema.DomainSize(),
		MatrixN:    c.matrix.N,
		MatrixDiag: c.matrix.Diag,
		MatrixOff:  c.matrix.Off,
	}
}

// checkState validates decoded state metadata against this core's
// contract.
func (c *gammaCore) checkState(st *counterState) error {
	if st.SchemaName != c.schema.Name || st.M != c.schema.M() || st.DomainSize != c.schema.DomainSize() {
		return fmt.Errorf("%w: state was saved for schema %q (M=%d, |S_U|=%d), not %q (M=%d, |S_U|=%d)",
			ErrMining, st.SchemaName, st.M, st.DomainSize, c.schema.Name, c.schema.M(), c.schema.DomainSize())
	}
	if st.MatrixN != c.matrix.N || st.MatrixDiag != c.matrix.Diag || st.MatrixOff != c.matrix.Off {
		return fmt.Errorf("%w: state was saved under a different perturbation matrix", ErrMining)
	}
	return nil
}

// restoreShard validates one saved shard payload and folds it in
// through addCells. Callers restore into freshly built counters only, so
// a partially applied failed load is simply discarded. A legacy shard of
// subset histograms loads from its top one, the joint, once every subset
// histogram has its shape and non-negative cells, totals the record
// count and equals its derivation from the joint.
func (c *gammaCore) restoreShard(sh shardState) error {
	if len(sh.Hists) == 0 {
		return c.addCells(sh.Joint, sh.N)
	}
	top := 1<<len(c.cards) - 1
	switch {
	case len(sh.Joint) != 0:
		return fmt.Errorf("%w: state shard carries both joint cells and subset histograms", ErrMining)
	case len(sh.Hists) != top+1:
		return fmt.Errorf("%w: state has %d subset histograms, want %d", ErrMining, len(sh.Hists), top+1)
	case len(sh.Hists[top]) != len(c.joint):
		return fmt.Errorf("%w: subset %d histogram has %d cells, want %d", ErrMining, top, len(sh.Hists[top]), len(c.joint))
	}
	lat := newSubsetLattice(c.cards, sh.Hists[top])
	for mask := top; mask >= 1; mask-- {
		want := lat.hist(mask)
		if len(sh.Hists[mask]) != len(want) {
			return fmt.Errorf("%w: subset %d histogram has %d cells, want %d", ErrMining, mask, len(sh.Hists[mask]), len(want))
		}
		var sum float64
		for i, v := range sh.Hists[mask] {
			if v < 0 {
				return fmt.Errorf("%w: negative count in subset %d", ErrMining, mask)
			}
			if v != want[i] {
				return fmt.Errorf("%w: subset %d histogram is not the projection of the joint", ErrMining, mask)
			}
			sum += v
		}
		if diff := sum - float64(sh.N); diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("%w: subset %d totals %v, want %d", ErrMining, mask, sum, sh.N)
		}
	}
	return c.addCells(denseCells(sh.Hists[top], min(sh.N, len(c.joint))), sh.N)
}

// stateOf assembles the state of a cutState cut.
func (c *ShardedCounter) stateOf(cut counterCut) counterState {
	st := c.shards[0].stateMeta()
	for _, sc := range cut.shards {
		st.Shards = append(st.Shards, sc.state)
	}
	return st
}

// decodeState decodes a version-4 or version-3 state payload into the
// version-4 form.
func decodeState(r io.Reader) (*counterState, error) {
	var st counterState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: state ends prematurely (zero-byte file or truncated write): %v", ErrCorruptState, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	switch st.Version {
	case stateVersion:
	case legacyStateVersion:
		for i := range st.Shards {
			st.Shards[i].Joint = st.Shards[i].Cells
		}
	default:
		return nil, fmt.Errorf("%w: unsupported counter state version %d, want %d or %d",
			ErrMining, st.Version, stateVersion, legacyStateVersion)
	}
	if len(st.Shards) == 0 {
		return nil, fmt.Errorf("%w: sharded state has no shards", ErrMining)
	}
	if st.Scheme == "" {
		return nil, fmt.Errorf("%w: scheme-tagged state carries no scheme", ErrMining)
	}
	return &st, nil
}

// LoadLiveCounter restores a live counter from the state written by
// CounterCheckpoint.Save (of a ShardedCounter.CheckpointCut), the one
// writer of counter state. It validates the scheme identity, scheme
// parameters, and every structural invariant against the supplied
// contract before accepting the state. The live shard count is the
// caller's choice, not the file's: saved shard i folds into live shard
// i mod shards, so state round-trips across -shards changes and across
// the single↔sharded counter boundary.
func LoadLiveCounter(r io.Reader, scheme CounterScheme, shards int) (*ShardedCounter, error) {
	st, err := decodeState(r)
	if err != nil {
		return nil, err
	}
	if st.Scheme != scheme.Name() {
		return nil, fmt.Errorf("%w: state was saved under scheme %q, counter runs %q — cross-scheme restores are rejected, never merged",
			ErrMining, st.Scheme, scheme.Name())
	}
	c, err := NewShardedCounter(scheme, shards)
	if err != nil {
		return nil, err
	}
	if err := c.shards[0].checkState(st); err != nil {
		return nil, err
	}
	total := 0
	for i, sh := range st.Shards {
		if err := c.shards[i%len(c.shards)].restoreShard(sh); err != nil {
			return nil, err
		}
		total += sh.N
	}
	// Resume round-robin routing where the restored population left off
	// so post-restore submissions keep the shards balanced. The snapshot
	// version (the record total) restarts at the restored count; a state
	// restore swaps the whole counter object, so callers caching mining
	// results must also drop entries from the previous counter's version
	// line.
	c.next.Store(uint64(total))
	c.total.Store(int64(total))
	return c, nil
}
