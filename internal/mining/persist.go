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

// counterState is the serialized (version 3, scheme-tagged) form of a
// counter. The schema itself is NOT serialized — the loader supplies it
// (through the scheme contract) and the state is validated against it,
// so a state file can never silently reinterpret a different schema's
// counts. Scheme names the perturbation scheme, the scheme's parameters
// ride in the meta fields, and each shard carries either dense subset
// histograms (gamma) or sparse joint cells (the boolean schemes); saved
// shards fold modulo the live shard count.
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

// shardState is one shard's counts: dense subset histograms for gamma,
// sparse joint cells for the boolean schemes.
type shardState struct {
	N     int
	Hists [][]float64
	Cells []DeltaCell
}

// schemeStateVersion is the only state version the loaders accept.
// Versions 1 and 2 (pre-scheme gamma files) are no longer readable.
const schemeStateVersion = 3

// stateMeta fills the state header for a gamma core.
func (c *MaterializedGammaCounter) stateMeta() counterState {
	return counterState{
		Version:    schemeStateVersion,
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
func (c *MaterializedGammaCounter) checkState(st *counterState) error {
	if st.SchemaName != c.schema.Name || st.M != c.schema.M() || st.DomainSize != c.schema.DomainSize() {
		return fmt.Errorf("%w: state was saved for schema %q (M=%d, |S_U|=%d), not %q (M=%d, |S_U|=%d)",
			ErrMining, st.SchemaName, st.M, st.DomainSize, c.schema.Name, c.schema.M(), c.schema.DomainSize())
	}
	if st.MatrixN != c.matrix.N || st.MatrixDiag != c.matrix.Diag || st.MatrixOff != c.matrix.Off {
		return fmt.Errorf("%w: state was saved under a different perturbation matrix", ErrMining)
	}
	return nil
}

// saveShard deep-copies the core's state under its own lock, so
// submissions may keep arriving while the state streams out.
func (c *MaterializedGammaCounter) saveShard() shardState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	hists := make([][]float64, len(c.hists))
	for mask := 1; mask < len(c.hists); mask++ {
		hists[mask] = append([]float64(nil), c.hists[mask]...)
	}
	return shardState{N: c.n, Hists: hists}
}

// restoreShard validates one shard payload against the counter's
// structure — histogram shapes, non-negative cells, per-subset totals
// matching the record count — and folds its counts in. Callers restore
// into freshly built counters only, so a partially applied failed load
// is simply discarded.
func (c *MaterializedGammaCounter) restoreShard(sh shardState) error {
	if sh.N < 0 {
		return fmt.Errorf("%w: negative record count %d", ErrMining, sh.N)
	}
	if len(sh.Hists) != len(c.hists) {
		return fmt.Errorf("%w: state has %d subset histograms, want %d", ErrMining, len(sh.Hists), len(c.hists))
	}
	for mask := 1; mask < len(c.hists); mask++ {
		if len(sh.Hists[mask]) != len(c.hists[mask]) {
			return fmt.Errorf("%w: subset %d histogram has %d cells, want %d",
				ErrMining, mask, len(sh.Hists[mask]), len(c.hists[mask]))
		}
		var sum float64
		for _, v := range sh.Hists[mask] {
			if v < 0 {
				return fmt.Errorf("%w: negative count in subset %d", ErrMining, mask)
			}
			sum += v
		}
		if diff := sum - float64(sh.N); diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("%w: subset %d totals %v, want %d", ErrMining, mask, sum, sh.N)
		}
		addInto(c.hists[mask], sh.Hists[mask])
	}
	c.n += sh.N
	return nil
}

// save serializes every shard of a live counter in the scheme-tagged v3
// format. Each shard is deep-copied under its own lock first, so
// submissions may keep arriving while the state streams out.
func (c *ShardedCounter) save(w io.Writer) error {
	st := c.shards[0].stateMeta()
	st.Shards = make([]shardState, len(c.shards))
	for i, s := range c.shards {
		st.Shards[i] = s.saveShard()
	}
	return gob.NewEncoder(w).Encode(&st)
}

// decodeState decodes a version-3 state payload.
func decodeState(r io.Reader) (*counterState, error) {
	var st counterState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: state ends prematurely (zero-byte file or truncated write): %v", ErrCorruptState, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	if st.Version != schemeStateVersion {
		return nil, fmt.Errorf("%w: unsupported counter state version %d, want %d", ErrMining, st.Version, schemeStateVersion)
	}
	if len(st.Shards) == 0 {
		return nil, fmt.Errorf("%w: sharded state has no shards", ErrMining)
	}
	if st.Scheme == "" {
		return nil, fmt.Errorf("%w: scheme-tagged state carries no scheme", ErrMining)
	}
	return &st, nil
}

// LoadLiveCounter restores a live counter saved with ShardedCounter.Save,
// validating the scheme identity, scheme parameters, and every
// structural invariant against the supplied contract before accepting
// the state. The live shard count is the
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
	// version restarts at the restored record count; a state restore
	// swaps the whole counter object, so callers caching mining results
	// must also drop entries from the previous counter's version line.
	c.next.Store(uint64(total))
	c.total.Store(int64(total))
	c.version.Store(uint64(total))
	return c, nil
}
