package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/mining"
)

// On-disk layout of a FileStore directory:
//
//	checkpoint-<seq>.ckpt  gob checkpointFile: full counter state at one
//	                       WAL token, plus the replication identity and
//	                       the retained change-journal tail
//	wal-<seq>.log          framed header + walRecord deltas chained from
//	                       checkpoint <seq>'s token
//
// Every cell list on disk — in the counter state, the journal tail and
// the WAL records — is a mining.CellList, written in the mining
// package's cell codec. Every record and the segment header are framed as
// [len uint32][crc32 uint32][gob payload], both big-endian, so a torn
// trailing write is detected (short frame or CRC mismatch) and ends the
// replay instead of corrupting it. Checkpoints are written atomically —
// temp file, fsync, rename, directory fsync — so the newest checkpoint
// named by the directory is always complete.

const (
	checkpointMagic = "frapp-checkpoint"
	walMagic        = "frapp-wal"
	// checkpointVersion 3 writes the journal tail's cells in the cell
	// codec. Version 2 (gob-struct cells) is still read, and so is
	// version 1 (full replication baselines), keeping only its
	// checkpoint token. walVersion 2 writes walRecords; version 1
	// segments (gob CounterDeltas) are still replayed.
	checkpointVersion = 3
	walVersion        = 2

	checkpointSuffix = ".ckpt"
	walSuffix        = ".log"

	// tmpPattern prefixes every temp file the store creates; stale ones
	// (a crash between create and rename) are swept at Open.
	tmpPattern = ".frapp-ckpt-*"
)

// SyncMode controls WAL append durability. Checkpoints are always
// written with full fsync discipline regardless of mode.
type SyncMode int

const (
	// SyncAlways fsyncs the WAL after every appended delta (the
	// default). Appends are already batched by the service's flush
	// interval, so this costs one fsync per flush, not per record.
	SyncAlways SyncMode = iota
	// SyncOff leaves WAL appends to the OS page cache: a machine crash
	// can lose the un-synced tail (a process crash cannot). Recovery
	// semantics are unchanged — the durable prefix is still recovered
	// exactly.
	SyncOff
)

// Option configures a FileStore.
type Option func(*FileStore)

// WithSyncMode selects the WAL append durability mode.
func WithSyncMode(m SyncMode) Option {
	return func(s *FileStore) { s.sync = m }
}

// FileStore is the durable store the collection service persists its
// counter through: one directory holding checkpoints and WAL segments.
// The lifecycle is: Recover once (before serving), Attach the live
// counter (writes a fresh compacted boot checkpoint), then Append
// periodically from a background flusher, Checkpoint on record
// thresholds, and Close on shutdown. Append and Checkpoint are safe to
// call while the attached counter ingests concurrently; the store's own
// methods must not be called concurrently with each other (the service
// serializes them on one flusher goroutine). A directory belongs to
// exactly one server process at a time; concurrent writers are
// unsupported.
type FileStore struct {
	dir  string
	sync SyncMode

	counter *mining.ShardedCounter
	wal     *os.File
	seq     uint64 // current checkpoint/WAL generation
	// lastToken is the stream token of the last WAL-appended delta; the
	// next Append chains from it.
	lastToken uint64
	sinceCkpt int
	recovered bool
	closed    bool

	// walWrite, when set (tests), intercepts WAL frame writes to inject
	// partial or failing writers.
	walWrite func(f *os.File, p []byte) (int, error)

	// walBytes tracks the current WAL segment's size (header included)
	// for telemetry; obs, when set, receives durability observations.
	walBytes int64
	obs      Observer
}

// Open opens (or creates) a store directory and sweeps stale temp
// files from crashed atomic writes. A regular file at dir is refused:
// it is a single-file state from before the directory layout, which
// this store no longer reads.
func Open(dir string, opts ...Option) (*FileStore, error) {
	s := &FileStore{dir: dir, sync: SyncAlways}
	for _, opt := range opts {
		opt(s)
	}
	info, err := os.Stat(dir)
	switch {
	case err == nil && info.Mode().IsRegular():
		return nil, fmt.Errorf("%w: %s is a single-file state, which is no longer read: "+
			"boot it once with an earlier frapp-server release that migrates single-file state into a directory, "+
			"or move it aside to start empty", ErrStore, dir)
	case err == nil && !info.IsDir():
		return nil, fmt.Errorf("%w: %s is not a directory", ErrStore, dir)
	case err != nil && !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.sweepTemps(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepTemps removes orphaned temp files left by writes that crashed
// between create and rename.
func (s *FileStore) sweepTemps() error {
	matches, err := filepath.Glob(filepath.Join(s.dir, tmpPattern))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// checkpointFile is the serialized checkpoint: the counter state (the
// payload of CounterCheckpoint.Save) frozen at WALToken, plus the
// replication identity to restore into the recovered counter.
type checkpointFile struct {
	Magic    string
	Version  int
	Seq      uint64
	WALToken uint64
	Identity mining.ReplicationState
	// Replication is versions 1 and 2's form of Identity, read only.
	Replication legacyReplication
	State       []byte
}

// legacyReplication is mining.ReplicationState as versions 1 and 2
// wrote it, with gob-struct journal cells (version 1 wrote no journal).
type legacyReplication struct {
	Epoch     uint64
	LastToken uint64
	Journal   []struct {
		Token   uint64
		Records int
		Cells   []mining.DeltaCell
	}
}

// identity returns the checkpoint's replication identity, whichever
// version wrote it.
func (ck *checkpointFile) identity() mining.ReplicationState {
	if ck.Version >= 3 {
		return ck.Identity
	}
	rs := mining.ReplicationState{Epoch: ck.Replication.Epoch, LastToken: ck.Replication.LastToken}
	for _, sg := range ck.Replication.Journal {
		rs.Journal = append(rs.Journal, mining.JournalSegment{Token: sg.Token, Records: sg.Records, Cells: sg.Cells})
	}
	return rs
}

// walHeader opens every WAL segment: records in segment Seq chain from
// StartToken (checkpoint Seq's WALToken).
type walHeader struct {
	Magic      string
	Version    int
	Seq        uint64
	StartToken uint64
}

// walRecord is one WAL record from walVersion 2: the delta with its
// cells moved into the cell codec. The /v1/replicate wire keeps sending
// mining.CounterDelta as it is.
type walRecord struct {
	Delta mining.CounterDelta // without cells
	Cells mining.CellList
}

// encodeDelta serializes d as a WAL record payload.
func encodeDelta(d *mining.CounterDelta) ([]byte, error) {
	rec := walRecord{Delta: *d, Cells: d.Cells}
	rec.Delta.Cells = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeDelta parses a WAL record payload of a segment of the given
// version.
func decodeDelta(payload []byte, version int) (*mining.CounterDelta, error) {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if version == 1 {
		var d mining.CounterDelta
		err := dec.Decode(&d)
		return &d, err
	}
	var rec walRecord
	if err := dec.Decode(&rec); err != nil {
		return nil, err
	}
	rec.Delta.Cells = rec.Cells
	return &rec.Delta, nil
}

// Recover rebuilds the durable state — newest valid checkpoint plus the
// replayed WAL tail — as a live counter with the store's persisted
// replication identity restored. Returns (nil, nil) when the store holds
// no state yet.
func (s *FileStore) Recover(scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, error) {
	counter, err := s.recover(scheme, shards)
	if s.obs != nil {
		records := 0
		if counter != nil {
			records = counter.N()
		}
		s.obs.ObserveRecovery(records, counter != nil, err)
	}
	return counter, err
}

func (s *FileStore) recover(scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, error) {
	if s.recovered {
		return nil, fmt.Errorf("%w: Recover called twice", ErrStore)
	}
	s.recovered = true
	seqs, err := s.listSeqs(checkpointSuffix)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, nil
	}
	// Newest valid checkpoint wins; a corrupt newest checkpoint falls
	// back to its predecessor (whose WAL segment still carries the
	// interval, minus whatever the corrupt checkpoint alone held).
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		counter, ck, err := s.loadCheckpoint(seqs[i], scheme, shards)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// The tail must end at the checkpoint token. A v1 checkpoint
		// carries full baselines instead, of which only the checkpoint's
		// own token is kept.
		rs := ck.identity()
		if k := len(rs.Journal); k == 0 || rs.Journal[k-1].Token != ck.WALToken {
			rs.Journal = []mining.JournalSegment{{Token: ck.WALToken}}
		}
		if err := s.replayWAL(counter, ck.Seq, &rs); err != nil {
			return nil, err
		}
		if rs.Epoch != 0 {
			if err := counter.RestoreReplicationState(rs); err != nil {
				return nil, err
			}
		}
		s.seq = seqs[len(seqs)-1] // continue numbering past every file present
		return counter, nil
	}
	return nil, fmt.Errorf("no valid checkpoint in %s (restore a backup, or remove the directory to start empty): %w", s.dir, firstErr)
}

// loadCheckpoint decodes and validates one checkpoint file.
func (s *FileStore) loadCheckpoint(seq uint64, scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, *checkpointFile, error) {
	path := s.checkpointPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var ck checkpointFile
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w: %v", path, mining.ErrCorruptState, err)
	}
	if ck.Magic != checkpointMagic || ck.Version < 1 || ck.Version > checkpointVersion || ck.Seq != seq {
		return nil, nil, fmt.Errorf("checkpoint %s: %w: bad header (magic %q, version %d, seq %d)",
			path, mining.ErrCorruptState, ck.Magic, ck.Version, ck.Seq)
	}
	counter, err := mining.LoadLiveCounter(bytes.NewReader(ck.State), scheme, shards)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return counter, &ck, nil
}

// replayWAL folds every decodable WAL record chained after checkpoint
// seq's token (the newest token of rs) into the counter, extending rs
// with each. Corruption — a torn frame, a CRC mismatch, a broken chain —
// ends the replay at the last good record; it is never fatal, because
// everything before the tear is a consistent prefix of the
// acknowledged-and-flushed records.
func (s *FileStore) replayWAL(counter *mining.ShardedCounter, seq uint64, rs *mining.ReplicationState) error {
	seqs, err := s.listSeqs(walSuffix)
	if err != nil {
		return err
	}
	for _, ws := range seqs {
		if ws < seq {
			continue
		}
		ok, err := s.replaySegment(counter, ws, rs)
		if err != nil || !ok {
			return err
		}
	}
	return nil
}

// replaySegment replays one segment; ok=false means the chain ended
// inside it (tear or break), so later segments must not be applied.
func (s *FileStore) replaySegment(counter *mining.ShardedCounter, seq uint64, rs *mining.ReplicationState) (bool, error) {
	f, err := os.Open(s.walPath(seq))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// A crash between checkpoint write and WAL rotation: the
			// checkpoint already covers everything.
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	payload, err := readFrame(r)
	if err != nil {
		return false, nil // torn or empty header: segment carries nothing
	}
	var hdr walHeader
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&hdr); err != nil {
		return false, nil
	}
	if hdr.Magic != walMagic || hdr.Version < 1 || hdr.Version > walVersion || hdr.Seq != seq || hdr.StartToken != rs.Journal[len(rs.Journal)-1].Token {
		return false, nil // not the segment this chain expects
	}
	for {
		payload, err := readFrame(r)
		if err != nil {
			// io.EOF is the clean end of a fully replayed segment; any
			// other error is a torn/corrupt tail — stop at the last good
			// record either way.
			return errors.Is(err, io.EOF), nil
		}
		d, err := decodeDelta(payload, hdr.Version)
		if err != nil {
			return false, nil
		}
		if d.Full() || d.FromVersion != rs.Journal[len(rs.Journal)-1].Token {
			return false, nil // chain break: treat like a tear
		}
		if err := counter.ApplyDelta(d); err != nil {
			return false, fmt.Errorf("replaying %s: %w", s.walPath(seq), err)
		}
		rs.Extend(d)
	}
}

// Attach binds the live counter the store will log: it writes a boot
// checkpoint of the counter's current state (recovered or empty) and
// rotates onto a fresh WAL segment.
func (s *FileStore) Attach(counter *mining.ShardedCounter) error {
	if counter == nil {
		return fmt.Errorf("%w: nil counter", ErrStore)
	}
	if s.counter != nil {
		return fmt.Errorf("%w: a counter is already attached", ErrStore)
	}
	s.counter = counter
	if err := s.checkpoint(); err != nil {
		s.counter = nil
		return err
	}
	return nil
}

// Append flushes the counter's changes since the last append into the
// WAL (a no-op when nothing changed): one DeltaSince pull chained onto
// the last appended token, framed into the current WAL segment. When the
// counter no longer retains the chain token (trimmed by many interleaved
// replication pullers, or a journal dropped for outgrowing its budget),
// the delta comes back FULL — then the store compacts instead of
// appending, which restores a clean chain.
func (s *FileStore) Append() error {
	start := time.Now()
	n, records, fsyncDur, err := s.append()
	if s.obs != nil {
		s.obs.ObserveAppend(n, records, fsyncDur, time.Since(start), err)
		s.obs.ObserveWALSize(s.walBytes)
	}
	return err
}

func (s *FileStore) append() (appended, records int, fsyncDur time.Duration, err error) {
	if err := s.attached(); err != nil {
		return 0, 0, 0, err
	}
	d, err := s.counter.DeltaSince(s.lastToken)
	if err != nil {
		return 0, 0, 0, err
	}
	if d.Full() {
		return 0, 0, 0, s.checkpoint()
	}
	if d.ToVersion == s.lastToken {
		return 0, 0, 0, nil // unchanged
	}
	payload, err := encodeDelta(d)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := s.writeFrame(payload); err != nil {
		return 0, 0, 0, err
	}
	if s.sync == SyncAlways {
		t0 := time.Now()
		if err := s.wal.Sync(); err != nil {
			return len(payload), 0, time.Since(t0), err
		}
		fsyncDur = time.Since(t0)
	}
	s.lastToken = d.ToVersion
	s.sinceCkpt += d.Records
	return len(payload), d.Records, fsyncDur, nil
}

// Checkpoint compacts: writes the counter's full current state as a new
// checkpoint, rotates the WAL, and prunes obsolete files.
func (s *FileStore) Checkpoint() error {
	if err := s.attached(); err != nil {
		return err
	}
	return s.checkpoint()
}

// checkpoint compacts the counter's full current state into
// checkpoint-(seq+1), rotates the WAL onto segment seq+1, and prunes
// files older than seq (the previous generation is kept as the
// fallback for a corrupt newest checkpoint).
func (s *FileStore) checkpoint() error {
	start := time.Now()
	stateBytes, err := s.compact()
	if s.obs != nil {
		s.obs.ObserveCheckpoint(stateBytes, time.Since(start), err)
		s.obs.ObserveWALSize(s.walBytes)
	}
	return err
}

// compact is the checkpoint body, returning the serialized state size
// for telemetry.
func (s *FileStore) compact() (int, error) {
	// The checkpoint cut saves the state exactly at a real stream token
	// the WAL chain and replication pullers can chain onto.
	cut := s.counter.CheckpointCut(s.lastToken)
	// Bridge the outgoing segment onto the checkpoint token: appending
	// the pending tail to the old WAL lets a recovery that falls back
	// past a corrupt checkpoint file chain straight through into the
	// next segment. Best-effort — a failure here only shortens the
	// fallback prefix, never the primary recovery path.
	if s.wal != nil && cut.Bridge != nil {
		if payload, err := encodeDelta(cut.Bridge); err == nil && s.writeFrame(payload) == nil {
			s.wal.Sync()
			s.lastToken = cut.Token
		}
	}
	var state bytes.Buffer
	if err := cut.Save(&state); err != nil {
		return 0, err
	}
	newSeq := s.seq + 1
	ck := checkpointFile{
		Magic:    checkpointMagic,
		Version:  checkpointVersion,
		Seq:      newSeq,
		WALToken: cut.Token,
		Identity: cut.Replication,
		State:    state.Bytes(),
	}
	if err := s.writeCheckpointFile(&ck); err != nil {
		return state.Len(), err
	}
	if err := s.rotateWAL(newSeq, cut.Token); err != nil {
		return state.Len(), err
	}
	s.seq = newSeq
	s.lastToken = cut.Token
	s.sinceCkpt = 0
	s.prune(newSeq - 1)
	return state.Len(), nil
}

// writeCheckpointFile writes one checkpoint atomically and durably:
// temp file, fsync, rename, directory fsync.
func (s *FileStore) writeCheckpointFile(ck *checkpointFile) error {
	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	w := bufio.NewWriter(tmp)
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, s.checkpointPath(ck.Seq)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(s.dir)
}

// rotateWAL closes the current segment and opens segment seq, chained
// from token.
func (s *FileStore) rotateWAL(seq, token uint64) error {
	if s.wal != nil {
		s.wal.Sync()
		s.wal.Close()
		s.wal = nil
	}
	f, err := os.OpenFile(s.walPath(seq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	s.walBytes = 0
	var buf bytes.Buffer
	hdr := walHeader{Magic: walMagic, Version: walVersion, Seq: seq, StartToken: token}
	if err := gob.NewEncoder(&buf).Encode(&hdr); err != nil {
		return err
	}
	if err := s.writeFrame(buf.Bytes()); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	return SyncDir(s.dir)
}

// prune removes checkpoints and WAL segments older than keepFrom.
func (s *FileStore) prune(keepFrom uint64) {
	for _, suffix := range []string{checkpointSuffix, walSuffix} {
		seqs, err := s.listSeqs(suffix)
		if err != nil {
			return
		}
		for _, seq := range seqs {
			if seq < keepFrom {
				if suffix == checkpointSuffix {
					os.Remove(s.checkpointPath(seq))
				} else {
					os.Remove(s.walPath(seq))
				}
			}
		}
	}
}

// SinceCheckpoint reports how many records the WAL has accumulated
// since the last checkpoint — the service's checkpoint trigger.
func (s *FileStore) SinceCheckpoint() int { return s.sinceCkpt }

// Close releases the store. It does not flush: callers Append (and
// usually Checkpoint) first on the graceful path. Idempotent.
func (s *FileStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		s.wal.Sync()
		err := s.wal.Close()
		s.wal = nil
		return err
	}
	return nil
}

// Dir returns the store directory.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) attached() error {
	if s.closed {
		return fmt.Errorf("%w: store is closed", ErrStore)
	}
	if s.counter == nil || s.wal == nil {
		return fmt.Errorf("%w: no counter attached", ErrStore)
	}
	return nil
}

// writeFrame appends one [len][crc][payload] frame to the WAL.
func (s *FileStore) writeFrame(payload []byte) error {
	if len(payload) > mining.MaxDeltaWireBytes {
		return fmt.Errorf("%w: WAL record of %d bytes exceeds cap", ErrStore, len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	write := s.walWrite
	if write == nil {
		write = (*os.File).Write
	}
	n, err := write(s.wal, frame)
	s.walBytes += int64(n)
	return err
}

// errTornFrame marks an incomplete or corrupt trailing frame.
var errTornFrame = errors.New("store: torn WAL frame")

// readFrame reads one frame; io.EOF means a clean end exactly at a
// frame boundary, errTornFrame anything short or corrupt — a partial
// header, a short payload, an oversized length, or a CRC mismatch.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, errTornFrame
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length > mining.MaxDeltaWireBytes {
		return nil, errTornFrame
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornFrame
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame
	}
	return payload, nil
}

func (s *FileStore) checkpointPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("checkpoint-%016d%s", seq, checkpointSuffix))
}

func (s *FileStore) walPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d%s", seq, walSuffix))
}

// listSeqs returns the sequence numbers of all files with the given
// suffix, ascending. Unparsable names are ignored.
func (s *FileStore) listSeqs(suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	prefix := "checkpoint-"
	if suffix == walSuffix {
		prefix = "wal-"
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// SyncDir fsyncs a directory so a rename or create inside it is durable
// — without it, a power loss can roll back the directory entry even
// though the file's own bytes were synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
