package persist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const snapHeaderLen = 24 // magic + version + walSeq + payloadLen + crc

// keepSnapshots is how many snapshot files are retained: the newest is
// authoritative, the one before it exists for forensics.
const keepSnapshots = 2

// SnapshotInfo describes one written snapshot.
type SnapshotInfo struct {
	// WALSeq is the first WAL segment replay resumes from.
	WALSeq uint64
	// Bytes is the snapshot payload size.
	Bytes int
	// PrunedSegments counts WAL segments the snapshot made obsolete.
	PrunedSegments int
}

// WriteSnapshot persists one point-in-time state payload and truncates
// the WAL segments it supersedes. walSeq must come from Rotate: the
// owner rotates, exports its state, then writes — records acknowledged
// after the rotation live in segments ≥ walSeq and survive the
// truncation, so the snapshot plus the remaining tail always replays to
// the current state (owners whose tail records are absolute, not
// additive, may export outside the rotation critical section).
//
// The snapshot is written to a temp file, fsynced and renamed into
// place; a crash — or an injected write/sync/rename failure — at any
// point before the rename commits leaves the previous snapshot
// authoritative and the full WAL tail in place, so a failed snapshot
// never costs acknowledged state.
func (s *Store) WriteSnapshot(walSeq uint64, payload []byte) (SnapshotInfo, error) {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return SnapshotInfo{}, fmt.Errorf("persist: snapshot size %d out of range", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return SnapshotInfo{}, fmt.Errorf("persist: WriteSnapshot before Recover")
	}

	var hdr [snapHeaderLen]byte
	putU32(hdr[0:], snapMagic)
	putU32(hdr[4:], FormatVersion)
	putU64(hdr[8:], walSeq)
	putU32(hdr[16:], uint32(len(payload)))
	putU32(hdr[20:], crc32.ChecksumIEEE(payload))

	final := filepath.Join(s.dir, snapName(walSeq))
	tmp := final + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("persist: snapshot: %w", s.diskErr(err))
	}
	if _, err = f.Write(hdr[:]); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("persist: snapshot: %w", s.diskErr(err))
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("persist: snapshot: %w", s.diskErr(err))
	}
	s.syncDir()

	pruned, err := s.pruneLocked(walSeq)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{WALSeq: walSeq, Bytes: len(payload), PrunedSegments: pruned}, nil
}

// pruneLocked removes WAL segments the snapshot at walSeq covers and
// snapshot files beyond the retention count.
func (s *Store) pruneLocked(walSeq uint64) (int, error) {
	segs, err := listSeqs(s.fs, s.dir, "wal-", ".log")
	if err != nil {
		return 0, err
	}
	pruned := 0
	for _, seq := range segs {
		if seq < walSeq {
			if err := s.fs.Remove(filepath.Join(s.dir, segName(seq))); err == nil {
				pruned++
			}
		}
	}
	snaps, err := listSeqs(s.fs, s.dir, "snap-", ".snap")
	if err != nil {
		return pruned, err
	}
	for i := 0; i < len(snaps)-keepSnapshots; i++ {
		_ = s.fs.Remove(filepath.Join(s.dir, snapName(snaps[i])))
	}
	s.syncDir()
	return pruned, nil
}

// loadSnapshot reads and validates the newest snapshot. It returns
// (nil, 0, false, nil) when the directory has none. A version mismatch
// or a corrupt snapshot is an error: the snapshot is the recovery
// baseline, and a wrong baseline silently replayed over is worse than a
// refusal the operator can act on.
func loadSnapshot(fs FS, dir string) (payload []byte, walSeq uint64, ok bool, err error) {
	snaps, err := listSeqs(fs, dir, "snap-", ".snap")
	if err != nil {
		return nil, 0, false, err
	}
	if len(snaps) == 0 {
		return nil, 0, false, nil
	}
	name := snapName(snaps[len(snaps)-1])
	data, err := fs.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: %w", err)
	}
	if len(data) < snapHeaderLen {
		return nil, 0, false, fmt.Errorf("persist: snapshot %s truncated (%d bytes)", name, len(data))
	}
	if m := getU32(data); m != snapMagic {
		return nil, 0, false, fmt.Errorf("persist: snapshot %s has bad magic %#x", name, m)
	}
	if v := getU32(data[4:]); v != FormatVersion {
		return nil, 0, false, fmt.Errorf("persist: snapshot %s has format version %d, this binary reads version %d — refusing to guess at its layout", name, v, FormatVersion)
	}
	walSeq = getU64(data[8:])
	n := int(getU32(data[16:]))
	body := data[snapHeaderLen:]
	if n != len(body) {
		return nil, 0, false, fmt.Errorf("persist: snapshot %s payload length %d, header says %d", name, len(body), n)
	}
	if crc := crc32.ChecksumIEEE(body); crc != getU32(data[20:]) {
		return nil, 0, false, fmt.Errorf("persist: snapshot %s checksum mismatch", name)
	}
	return body, walSeq, true, nil
}
