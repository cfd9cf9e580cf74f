// Package persist gives the advisor daemon a durable, crash-consistent
// state store: an append-only write-ahead log of checksummed records in
// rotated segment files, plus versioned point-in-time snapshots that
// bound replay time and let older segments be truncated.
//
// The contract mirrors classic database recovery. Every state mutation
// the owner wants to survive a crash is appended as one opaque record;
// a snapshot captures the owner's full state and names the WAL segment
// sequence from which replay must resume; recovery loads the newest
// snapshot and replays the segment tail in order. A torn final record —
// the write the crash interrupted — is detected by its checksum (or by
// the file simply ending mid-frame) and cut off; corruption anywhere
// *before* the tail is not a torn write and fails recovery loudly
// rather than silently dropping acknowledged records.
//
// Beyond crashes, the store is designed for the disk failing *while it
// runs*: every syscall site goes through an injectable filesystem seam
// (Options.FS), a failed append repairs its own torn frame (truncate
// back to the last acknowledged record) before any later append may
// proceed — so an error answered to the owner is never followed by a
// log that silently lost it — and Probe lets the owner re-test a
// previously failing data directory before leaving degraded mode.
//
// On-disk layout, all integers little-endian:
//
//	wal-<seq>.log    segment header (magic "CPHW", format version,
//	                 seq), then records framed as
//	                 [len u32][crc32(payload) u32][payload]
//	snap-<seq>.snap  snapshot header (magic "CPHS", format version,
//	                 wal seq, payload len, crc32(payload)), then the
//	                 owner's opaque payload; written to a temp file and
//	                 renamed into place, so a crashed snapshot write
//	                 leaves the previous snapshot intact
//
// <seq> in a snapshot name is the first WAL segment to replay on top of
// it. A version mismatch in either header is rejected with an error
// naming both versions — state written by a different binary generation
// is never misparsed.
package persist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	walMagic  uint32 = 0x43504857 // "CPHW"
	snapMagic uint32 = 0x43504853 // "CPHS"

	// FormatVersion stamps every segment and snapshot header. Readers
	// refuse any other version: a durable state directory is only
	// meaningful to the binary generation that wrote it, and silent
	// misparsing is the one failure mode a recovery layer must not have.
	FormatVersion uint32 = 1

	segHeaderLen = 16 // magic + version + seq
	recHeaderLen = 8  // payload len + crc
	// maxRecordBytes bounds one record; a framed length beyond it is
	// treated as corruption, not an allocation request.
	maxRecordBytes = 64 << 20
)

// Options tune a Store.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that finds the
	// current segment at or beyond it starts a new segment first.
	// Default 1 MiB.
	SegmentBytes int64
	// Sync fsyncs the segment after every append. Off by default: the
	// daemon's durability target is process crashes (kill -9, deploys),
	// which the page cache survives; snapshots are always fsynced.
	Sync bool
	// FS is the filesystem seam every open/write/sync/rename/close of
	// the store goes through. Nil means the real filesystem; tests
	// install a FaultFS to run disk-fault schedules through the
	// production code paths.
	FS FS
}

// Store is a WAL + snapshot directory. All methods are safe for
// concurrent use; Recover must be called (once) before the first
// Append or WriteSnapshot.
type Store struct {
	dir  string
	opts Options
	fs   FS

	mu        sync.Mutex
	seg       *segWriter
	segSeq    uint64
	segSize   int64
	nextSeq   uint64
	recovered bool

	// A failed append leaves a torn frame at the end of its segment.
	// Before anything else may be written, that frame must be cut back
	// off — otherwise a later successful append (in this segment or,
	// worse, a rotated-to new one) would strand mid-log corruption that
	// recovery rightly refuses. repairPath/repairSize name the segment
	// and its last-good length; while set, every Append (and Probe)
	// retries the repair first and fails if it cannot.
	repairPath string
	repairSize int64

	diskErrors atomic.Int64
}

// segWriter is the open WAL segment.
type segWriter struct {
	f    File
	path string
}

// Open prepares a store over dir, creating it if needed. No segment is
// created yet — recovery must see the directory exactly as the crash
// left it, and fresh appends always start a new segment rather than
// extending a possibly-torn one.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	// Sweep snapshot temp files a crash mid-WriteSnapshot left behind:
	// sequence numbers only advance, so nothing would ever overwrite
	// or collect them.
	if entries, err := fs.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".snap.tmp") {
				_ = fs.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	segs, err := listSeqs(fs, dir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	// Snapshot names also pin sequence numbers: a snapshot at seq S
	// means "replay from S", so even if segment S itself was lost to a
	// torn creation, no future segment may reuse a sequence ≤ S — it
	// would be skipped by replay.
	snaps, err := listSeqs(fs, dir, "snap-", ".snap")
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 && segs[n-1]+1 > next {
		next = segs[n-1] + 1
	}
	if n := len(snaps); n > 0 && snaps[n-1]+1 > next {
		next = snaps[n-1] + 1
	}
	return &Store{dir: dir, opts: opts, fs: fs, nextSeq: next}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// DiskErrors returns the number of filesystem operations that have
// failed since Open — real faults and injected ones alike. The serving
// layer surfaces it in /stats as disk_errors.
func (s *Store) DiskErrors() int64 { return s.diskErrors.Load() }

// diskErr counts a filesystem failure and passes it through.
func (s *Store) diskErr(err error) error {
	if err != nil {
		s.diskErrors.Add(1)
	}
	return err
}

// Append frames one record onto the WAL, rotating the segment when the
// current one is full. The payload is owned by the caller.
//
// Failure discipline: an append that errors has NOT acknowledged its
// record, and the store restores the segment to its last-good length
// (immediately, or — if even the truncate fails — before any later
// append is allowed through), so the log never carries a half-frame
// in front of acknowledged records. An error here is therefore safe
// to answer to the client as a refusal: a retry appends once, and
// recovery replays exactly the acknowledged prefix.
func (s *Store) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("persist: record size %d out of range", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return fmt.Errorf("persist: Append before Recover")
	}
	if err := s.repairLocked(); err != nil {
		return err
	}
	if s.seg == nil || s.segSize >= s.opts.SegmentBytes {
		if _, err := s.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [recHeaderLen]byte
	putU32(hdr[0:], uint32(len(payload)))
	putU32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := s.seg.f.Write(hdr[:]); err != nil {
		s.tornAppendLocked()
		return fmt.Errorf("persist: append: %w", s.diskErr(err))
	}
	if _, err := s.seg.f.Write(payload); err != nil {
		s.tornAppendLocked()
		return fmt.Errorf("persist: append: %w", s.diskErr(err))
	}
	if s.opts.Sync {
		if err := s.seg.f.Sync(); err != nil {
			// The frame is on the page cache but its durability was
			// refused; treat it like a torn write — un-acknowledged
			// records must not precede later acknowledged ones.
			s.tornAppendLocked()
			return fmt.Errorf("persist: sync: %w", s.diskErr(err))
		}
	}
	s.segSize += int64(recHeaderLen + len(payload))
	return nil
}

// tornAppendLocked handles a failed frame write: the segment may now
// end mid-frame. Close it, remember its last-good size, and try to cut
// the torn bytes off right away; if that also fails, the pending repair
// blocks every future append until it succeeds.
func (s *Store) tornAppendLocked() {
	path := s.seg.path
	_ = s.seg.f.Close() // best-effort; the segment is being abandoned
	s.seg = nil
	s.repairPath, s.repairSize = path, s.segSize
	_ = s.repairLocked() // counts its own failure; pending if it failed
}

// repairLocked undoes a previously torn write: a segment with a
// half-frame is truncated back to its last-good length, and a
// header-less stub from a failed rotation (last-good length zero) is
// removed outright — a zero-byte file would read as a corrupt mid-log
// segment once later segments exist. Shrinking truncate succeeds even
// on a full disk, but a read-only or vanished directory can still
// refuse either op — then the repair stays pending and appends keep
// failing until a Probe (or a later Append) gets it through.
func (s *Store) repairLocked() error {
	if s.repairPath == "" {
		return nil
	}
	if s.repairSize <= 0 {
		if err := s.fs.Remove(s.repairPath); err != nil {
			return fmt.Errorf("persist: removing stub segment %s: %w", filepath.Base(s.repairPath), s.diskErr(err))
		}
	} else if err := s.fs.Truncate(s.repairPath, s.repairSize); err != nil {
		return fmt.Errorf("persist: repairing torn append in %s: %w", filepath.Base(s.repairPath), s.diskErr(err))
	}
	s.repairPath, s.repairSize = "", 0
	return nil
}

// Probe re-tests the store's directory after failures: it first
// retries any pending torn-append repair, then exercises the full
// write path — create, write, sync, close, remove — on a scratch file.
// A nil return means the data directory accepts durable writes again;
// the owner uses it to leave degraded mode. Safe for concurrent use.
func (s *Store) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.repairLocked(); err != nil {
		return err
	}
	name := filepath.Join(s.dir, "probe.tmp")
	f, err := s.fs.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: probe: %w", s.diskErr(err))
	}
	_, werr := f.Write([]byte("cophyd-probe"))
	serr := f.Sync()
	cerr := f.Close()
	_ = s.fs.Remove(name)
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return fmt.Errorf("persist: probe: %w", s.diskErr(err))
		}
	}
	return nil
}

// Rotate closes the current segment and starts a fresh one, returning
// the new segment's sequence number. Every record appended after Rotate
// returns lands in a segment with at least that sequence — the snapshot
// cut: the owner calls Rotate, exports its state, and passes the
// returned sequence to WriteSnapshot, so no record acknowledged after
// the export can be truncated away.
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return 0, fmt.Errorf("persist: Rotate before Recover")
	}
	if err := s.repairLocked(); err != nil {
		return 0, err
	}
	return s.rotateLocked()
}

func (s *Store) rotateLocked() (uint64, error) {
	if s.seg != nil {
		s.syncClose(s.seg.f)
		s.seg = nil
	}
	seq := s.nextSeq
	path := filepath.Join(s.dir, segName(seq))
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: rotate: %w", s.diskErr(err))
	}
	var hdr [segHeaderLen]byte
	putU32(hdr[0:], walMagic)
	putU32(hdr[4:], FormatVersion)
	putU64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		// The sequence number is NOT consumed: skipping it would leave
		// a gap recovery refuses as lost segments. Instead the stub
		// file must be gone before the sequence can be reused — remove
		// it now, or leave a pending repair that blocks every append
		// until the removal succeeds.
		if rerr := s.fs.Remove(path); rerr != nil {
			s.diskErrors.Add(1)
			s.repairPath, s.repairSize = path, 0
		}
		return 0, fmt.Errorf("persist: rotate: %w", s.diskErr(err))
	}
	s.seg, s.segSeq, s.segSize = &segWriter{f: f, path: path}, seq, segHeaderLen
	s.nextSeq = seq + 1
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.diskErrors.Add(1)
	}
	return seq, nil
}

// Close flushes and closes the current segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg != nil {
		s.syncClose(s.seg.f)
		s.seg = nil
	}
	return nil
}

// segName / snapName render the on-disk file names.
func segName(seq uint64) string  { return fmt.Sprintf("wal-%016d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

// listSeqs returns the sorted sequence numbers of files named
// <prefix><seq><suffix> under dir.
func listSeqs(fs FS, dir, prefix, suffix string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// syncClose fsyncs and closes, best-effort: by the time a segment is
// closed its records were either acknowledged under Options.Sync or the
// owner accepted page-cache durability.
func (s *Store) syncClose(f File) {
	if err := f.Sync(); err != nil {
		s.diskErrors.Add(1)
	}
	if err := f.Close(); err != nil {
		s.diskErrors.Add(1)
	}
}

// syncDir fsyncs a directory so renames and creates are durable,
// best-effort at call sites where the state is already safe.
func (s *Store) syncDir() {
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.diskErrors.Add(1)
	}
}
