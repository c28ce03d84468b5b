package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/protocol"
)

// SegmentStore is the production Store: a directory of fixed-size,
// preallocated log segments holding length-prefixed, CRC32-checksummed
// binary records (the record payload reuses the internal/protocol
// uvarint field primitives, so the on-disk and on-wire formats speak
// the same dialect).
//
// The design keeps the force hot path down to one pwrite plus one
// fdatasync:
//
//   - Segments are preallocated to their full size at creation and
//     appends land inside the existing extent, so fdatasync never pays
//     a metadata-journal commit for a size change.
//   - Retired segments (after a checkpoint) are recycled into new ones
//     instead of deleted, so even segment creation usually avoids
//     block allocation.
//   - Rollover to the next segment is prepared in the background once
//     the current segment passes half full; the append path only pays
//     a rename+dir-sync to install it.
//
// Crash safety: a record is valid only if its stored CRC matches
// crc32(payload) XOR mix(segment seq). The per-segment sequence number
// is stamped in the segment header when the file is (re)initialized,
// so records left over from a recycled file's previous life can never
// be mistaken for live ones. The recovery scan stops at the first
// zero length, short record, or CRC mismatch — the torn tail of an
// interrupted write — and Open truncates the tail away (re-extending
// the file with zeros) so the garbage cannot resurface.
type SegmentStore struct {
	dir      string
	segBytes int64
	fsync    bool
	syncHook func() // called immediately before every physical sync (stall injection)

	mu        sync.Mutex
	dirf      *os.File
	gen       uint64
	nextIdx   uint64
	nextSeq   uint64
	freeCtr   uint64
	cur       *segFile
	sealed    []string // earlier segments of the current generation, in index order
	wbuf      []byte   // staged appends, written at cur.woff on the next flush
	enc       []byte   // scratch encode buffer
	dirty     bool     // bytes written since the last physical sync
	syncs     int      // logical Sync calls (the Store contract)
	physSyncs int      // device flushes actually issued
	rollovers int
	free      []string // recycled segment files awaiting reuse
	spare     *segFile // background-prepared next segment (temp name)
	prepping  bool
	closed    bool
}

// segFile is one open segment.
type segFile struct {
	f    *os.File
	path string
	seq  uint64
	mix  uint32
	size int64 // preallocated capacity
	woff int64 // next write offset
}

const (
	segHeaderSize   = 16
	segMagic        = "WSEG"
	segVersion      = 1
	manifestName    = "MANIFEST"
	defaultSegBytes = 4 << 20
	minSegBytes     = 128
)

// SegmentOption configures a SegmentStore.
type SegmentOption func(*SegmentStore)

// WithSegmentBytes sets the preallocated segment size (default 4 MiB).
func WithSegmentBytes(n int64) SegmentOption {
	return func(s *SegmentStore) {
		if n >= minSegBytes {
			s.segBytes = n
		}
	}
}

// WithSegmentFsync controls whether Sync issues a physical fdatasync.
// The default is true; tests that only count operations turn it off.
func WithSegmentFsync(on bool) SegmentOption {
	return func(s *SegmentStore) { s.fsync = on }
}

// WithSyncHook installs fn to run immediately before every physical
// sync. Tests and benchmarks use it to inject device stalls.
func WithSyncHook(fn func()) SegmentOption {
	return func(s *SegmentStore) { s.syncHook = fn }
}

// OpenSegmentStore opens (creating if needed) a segmented store in
// dir, recovering to the last whole record of the current generation.
func OpenSegmentStore(dir string, opts ...SegmentOption) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: segment dir %s: %w", dir, err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &SegmentStore{dir: dir, segBytes: defaultSegBytes, fsync: true, dirf: dirf}
	for _, o := range opts {
		o(s)
	}
	if err := s.recover(); err != nil {
		dirf.Close()
		return nil, err
	}
	return s, nil
}

// recover reads the manifest, classifies existing files, and positions
// the write point after the last whole record.
func (s *SegmentStore) recover() error {
	gen, err := s.readManifest()
	if err != nil {
		return err
	}
	s.gen = gen

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	type liveSeg struct {
		idx  uint64
		path string
	}
	var live []liveSeg
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(s.dir, name)
		var g, idx uint64
		switch {
		case strings.HasSuffix(name, ".seg") && strings.HasPrefix(name, "g"):
			if _, err := fmt.Sscanf(name, "g%06d-%08d.seg", &g, &idx); err != nil {
				continue
			}
			s.noteSeq(path)
			if g == s.gen {
				live = append(live, liveSeg{idx: idx, path: path})
			} else {
				s.recyclePath(path)
			}
		case strings.HasPrefix(name, "prep-") && strings.HasSuffix(name, ".seg"):
			s.noteSeq(path)
			s.recyclePath(path)
		case strings.HasPrefix(name, "free-") && strings.HasSuffix(name, ".seg"):
			s.noteSeq(path)
			var n uint64
			if _, err := fmt.Sscanf(name, "free-%08d.seg", &n); err == nil && n >= s.freeCtr {
				s.freeCtr = n + 1
			}
			s.free = append(s.free, path)
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(path)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].idx < live[j].idx })

	// The active segment is the highest-indexed one holding records
	// (an installed-but-empty successor is recycled; it will be
	// recreated on the next rollover).
	activeAt := -1
	ends := make([]int64, len(live))
	for i, ls := range live {
		_, end, _, err := readSegment(ls.path)
		if err != nil {
			return err
		}
		ends[i] = end
		if end > segHeaderSize {
			activeAt = i
		}
	}
	if activeAt == -1 && len(live) > 0 {
		activeAt = 0
	}
	for i, ls := range live {
		if i > activeAt {
			s.recyclePath(ls.path)
		}
	}
	if activeAt == -1 {
		sf, err := s.prepareSegment(s.segBytes)
		if err != nil {
			return err
		}
		if err := s.install(sf); err != nil {
			return err
		}
		return nil
	}

	for i := 0; i < activeAt; i++ {
		s.sealed = append(s.sealed, live[i].path)
	}
	act := live[activeAt]
	s.nextIdx = act.idx + 1
	f, err := os.OpenFile(act.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := st.Size()
	if size < s.segBytes {
		size = s.segBytes
	}
	hdr, err := readSegHeader(f)
	if err != nil {
		f.Close()
		return err
	}
	// Chop the torn tail, then re-extend with zeros so stale bytes
	// beyond the write point can never be scanned again.
	if err := f.Truncate(ends[activeAt]); err != nil {
		f.Close()
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if s.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	s.cur = &segFile{f: f, path: act.path, seq: hdr, mix: seqMix(hdr), size: size, woff: ends[activeAt]}
	return nil
}

// noteSeq folds path's header sequence number into the allocator so a
// recycled file can never be re-stamped with a seq its stale records
// were written under.
func (s *SegmentStore) noteSeq(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	if seq, err := readSegHeader(f); err == nil && seq >= s.nextSeq {
		s.nextSeq = seq + 1
	}
}

// recyclePath moves a retired or stale segment file into the free
// pool for reuse.
func (s *SegmentStore) recyclePath(path string) {
	dst := filepath.Join(s.dir, fmt.Sprintf("free-%08d.seg", s.freeCtr))
	s.freeCtr++
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
		return
	}
	s.free = append(s.free, dst)
}

func (s *SegmentStore) readManifest() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		if err := s.writeManifest(1); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	var gen uint64
	if _, err := fmt.Sscanf(string(data), "gen %d", &gen); err != nil || gen == 0 {
		return 0, fmt.Errorf("wal: bad manifest %q", data)
	}
	return gen, nil
}

// writeManifest atomically replaces the manifest (tmp + rename +
// directory sync), the commit point of a checkpoint generation swap.
func (s *SegmentStore) writeManifest(gen uint64) error {
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("gen %d\n", gen)), 0o644); err != nil {
		return err
	}
	if s.fsync {
		f, err := os.Open(tmp)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *SegmentStore) syncDir() error {
	if !s.fsync {
		return nil
	}
	return s.dirf.Sync()
}

// seqMix derives the per-segment CRC tweak from the segment sequence
// number; see the type comment for why records are sealed to their
// segment incarnation.
func seqMix(seq uint64) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return crc32.ChecksumIEEE(b[:])
}

func readSegHeader(f *os.File) (seq uint64, err error) {
	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("wal: segment header: %w", err)
	}
	if string(hdr[:4]) != segMagic || hdr[4] != segVersion {
		return 0, fmt.Errorf("wal: %s: not a log segment", f.Name())
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// appendSegRecord encodes rec as one framed record: a 4-byte little-
// endian payload length, the seq-mixed CRC32 of the payload, then the
// payload itself (uvarint LSN, flags, and length-prefixed fields).
func appendSegRecord(dst []byte, rec Record, mix uint32) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header, backfilled
	dst = protocol.AppendUvarint(dst, uint64(rec.LSN))
	var flags byte
	if rec.Forced {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = protocol.AppendLenString(dst, rec.Tx)
	dst = protocol.AppendLenString(dst, rec.Node)
	dst = protocol.AppendLenString(dst, rec.Kind)
	dst = protocol.AppendLenBytes(dst, rec.Data)
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload)^mix)
	return dst
}

// decodeSegPayload parses one record payload. ok is false on any
// truncation or trailing garbage.
func decodeSegPayload(p []byte) (Record, bool) {
	var rec Record
	lsn, rest, ok := protocol.CutUvarint(p)
	if !ok || len(rest) == 0 {
		return rec, false
	}
	flags := rest[0]
	rest = rest[1:]
	tx, rest, ok := protocol.CutLenBytes(rest)
	if !ok {
		return rec, false
	}
	node, rest, ok := protocol.CutLenBytes(rest)
	if !ok {
		return rec, false
	}
	kind, rest, ok := protocol.CutLenBytes(rest)
	if !ok {
		return rec, false
	}
	data, rest, ok := protocol.CutLenBytes(rest)
	if !ok || len(rest) != 0 {
		return rec, false
	}
	rec.LSN = int64(lsn)
	rec.Forced = flags&1 != 0
	rec.Tx = string(tx)
	rec.Node = string(node)
	rec.Kind = string(kind)
	if len(data) > 0 {
		rec.Data = append([]byte(nil), data...)
	}
	return rec, true
}

// readSegment scans one segment file, returning its whole records and
// the offset just past the last one. The scan stops — without error —
// at the first zero length, short frame, CRC mismatch, or undecodable
// payload: that is the torn tail (or the preallocated zero region).
func readSegment(path string) (recs []Record, validEnd int64, seq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(data) < segHeaderSize || string(data[:4]) != segMagic || data[4] != segVersion {
		return nil, segHeaderSize, 0, nil
	}
	seq = binary.LittleEndian.Uint64(data[8:])
	mix := seqMix(seq)
	off := int64(segHeaderSize)
	for {
		if off+8 > int64(len(data)) {
			break
		}
		ln := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln == 0 || off+8+ln > int64(len(data)) {
			break
		}
		payload := data[off+8 : off+8+ln]
		if crc32.ChecksumIEEE(payload)^mix != crc {
			break
		}
		rec, ok := decodeSegPayload(payload)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += 8 + ln
	}
	return recs, off, seq, nil
}

// prepareSegment creates (or recycles into) a preallocated segment
// file under a temporary name. Called with s.mu held (or during
// recovery); the background prep path instead stages the same work
// outside the lock via prepSpare.
func (s *SegmentStore) prepareSegment(size int64) (*segFile, error) {
	seq := s.nextSeq
	s.nextSeq++
	var src string
	if n := len(s.free); n > 0 && size <= s.segBytes {
		src = s.free[n-1]
		s.free = s.free[:n-1]
		size = s.segBytes
	}
	return buildSegment(s.dir, seq, src, size, s.fsync)
}

// buildSegment does the filesystem work of segment preparation:
// recycle (rename) or create the file, preallocate the full extent so
// appends never change the file size (fdatasync then skips the
// metadata journal), and stamp the header. It touches no SegmentStore
// state, so the background prep can run it without the lock.
func buildSegment(dir string, seq uint64, src string, size int64, fsync bool) (*segFile, error) {
	path := filepath.Join(dir, fmt.Sprintf("prep-%d.seg", seq))
	var f *os.File
	var err error
	if src != "" {
		if err = os.Rename(src, path); err != nil {
			return nil, err
		}
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
	} else {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &segFile{f: f, path: path, seq: seq, mix: seqMix(seq), size: size, woff: segHeaderSize}, nil
}

// install renames a prepared segment to its final indexed name and
// makes it the current write target. The directory sync makes the
// rename durable before any record lands in the file.
func (s *SegmentStore) install(sf *segFile) error {
	path := filepath.Join(s.dir, fmt.Sprintf("g%06d-%08d.seg", s.gen, s.nextIdx))
	s.nextIdx++
	if err := os.Rename(sf.path, path); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	sf.path = path
	if s.cur != nil {
		s.sealed = append(s.sealed, s.cur.path)
	}
	s.cur = sf
	return nil
}

// Append stages rec in the write buffer, rolling to the next segment
// when it does not fit.
func (s *SegmentStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.enc = appendSegRecord(s.enc[:0], rec, s.cur.mix)
	if s.cur.woff+int64(len(s.wbuf))+int64(len(s.enc)) > s.cur.size {
		if err := s.rolloverLocked(int64(len(s.enc))); err != nil {
			return err
		}
		// Re-encode: the CRC mix belongs to the new segment.
		s.enc = appendSegRecord(s.enc[:0], rec, s.cur.mix)
	}
	s.wbuf = append(s.wbuf, s.enc...)
	// Kick background preparation of the successor once this segment
	// is half consumed, so the eventual rollover finds it ready.
	if s.spare == nil && !s.prepping && s.cur.woff+int64(len(s.wbuf)) > s.cur.size/2 {
		s.prepping = true
		go s.prepSpare()
	}
	return nil
}

// rolloverLocked seals the current segment (flushing and hardening
// its tail) and installs the next one, sized for a record of need
// bytes.
func (s *SegmentStore) rolloverLocked(need int64) error {
	if err := s.flushBufLocked(); err != nil {
		return err
	}
	if err := s.deviceSyncLocked(); err != nil {
		return err
	}
	old := s.cur.f
	sf := s.spare
	s.spare = nil
	if sf == nil || sf.size < segHeaderSize+need {
		if sf != nil { // too small for an oversized record; keep it for later
			s.spare = sf
			sf = nil
		}
		size := s.segBytes
		if segHeaderSize+need > size {
			size = segHeaderSize + need
		}
		var err error
		sf, err = s.prepareSegment(size)
		if err != nil {
			return err
		}
	}
	if err := s.install(sf); err != nil {
		return err
	}
	s.rollovers++
	return old.Close()
}

// prepSpare runs in the background preparing the successor segment:
// allocation state is taken under the lock, the filesystem work runs
// outside it, and the result is installed as the spare.
func (s *SegmentStore) prepSpare() {
	s.mu.Lock()
	if s.spare != nil || s.closed {
		s.prepping = false
		s.mu.Unlock()
		return
	}
	seq := s.nextSeq
	s.nextSeq++
	var src string
	if n := len(s.free); n > 0 {
		src = s.free[n-1]
		s.free = s.free[:n-1]
	}
	dir, size, fsync := s.dir, s.segBytes, s.fsync
	s.mu.Unlock()

	sf, err := buildSegment(dir, seq, src, size, fsync)

	s.mu.Lock()
	s.prepping = false
	if err != nil || s.closed || s.spare != nil {
		if sf != nil {
			sf.f.Close() // the prep-* file is recycled on the next open
		}
		s.mu.Unlock()
		return
	}
	s.spare = sf
	s.mu.Unlock()
}

// flushBufLocked writes the staged buffer at the segment write point.
func (s *SegmentStore) flushBufLocked() error {
	if len(s.wbuf) == 0 {
		return nil
	}
	if _, err := s.cur.f.WriteAt(s.wbuf, s.cur.woff); err != nil {
		return err
	}
	s.cur.woff += int64(len(s.wbuf))
	s.wbuf = s.wbuf[:0]
	s.dirty = true
	return nil
}

// deviceSyncLocked hardens dirty bytes: the sync hook (stall
// injection) models the device flush and fires whenever there is
// dirty data, even with real fsync disabled, so stall tests stay
// device-independent. Used on seal and close, where skipping a clean
// segment is safe bookkeeping, not policy.
func (s *SegmentStore) deviceSyncLocked() error {
	if !s.dirty {
		return nil
	}
	if s.syncHook != nil {
		s.syncHook()
	}
	if s.fsync {
		if err := fdatasync(s.cur.f); err != nil {
			return err
		}
		s.physSyncs++
	}
	s.dirty = false
	return nil
}

// Sync writes the staged buffer and issues one fdatasync. Records of
// a whole group-commit batch ride the same flush.
//
// Sync deliberately does NOT skip the device flush when no new bytes
// landed since the last one: deciding which forces may share a sync
// is the SyncPolicy's job, and a store that quietly elides syncs
// would turn the ImmediateSync baseline into a covert group commit —
// every A/B number against it would be a lie. One Sync call, one
// device flush.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushBufLocked(); err != nil {
		return err
	}
	if s.syncHook != nil {
		s.syncHook()
	}
	if s.fsync {
		if err := fdatasync(s.cur.f); err != nil {
			return err
		}
		s.physSyncs++
	}
	s.dirty = false
	s.syncs++
	return nil
}

// Records scans the current generation and returns every whole
// record, stopping cleanly at a torn tail. The staged buffer is
// written first so the result includes everything appended (the Log
// layer models the volatile buffer).
func (s *SegmentStore) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBufLocked(); err != nil {
		return nil, err
	}
	var out []Record
	for _, path := range s.sealed {
		recs, _, _, err := readSegment(path)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	recs, _, _, err := readSegment(s.cur.path)
	if err != nil {
		return nil, err
	}
	return append(out, recs...), nil
}

// Syncs reports the number of Sync calls completed (the Store
// contract's logical count; see PhysSyncs for device flushes).
func (s *SegmentStore) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// PhysSyncs reports how many fdatasync calls actually reached the
// device — the denominator-free truth behind syncs/force.
func (s *SegmentStore) PhysSyncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.physSyncs
}

// Rollovers reports how many segment seals have happened.
func (s *SegmentStore) Rollovers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rollovers
}

// Truncate implements Truncater: the kept records are written to a
// fresh segment of the next generation and the manifest swap commits
// the checkpoint atomically. Old segments are recycled.
func (s *SegmentStore) Truncate(keep func(Record) bool) (kept, dropped int, err error) {
	recs, err := s.Records()
	if err != nil {
		return 0, 0, err
	}
	keepers := recs[:0]
	for _, r := range recs {
		if keep(r) {
			keepers = append(keepers, r)
		}
	}
	if err := s.replaceAll(keepers); err != nil {
		return 0, 0, err
	}
	return len(keepers), len(recs) - len(keepers), nil
}

// replaceAll rewrites the store as exactly recs.
func (s *SegmentStore) replaceAll(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushBufLocked(); err != nil {
		return err
	}
	newGen := s.gen + 1
	seq := s.nextSeq
	s.nextSeq++
	mix := seqMix(seq)
	buf := make([]byte, 0, 64<<10)
	for _, r := range recs {
		buf = appendSegRecord(buf, r, mix)
	}
	size := s.segBytes
	if segHeaderSize+int64(len(buf)) > size {
		size = segHeaderSize + int64(len(buf))
	}
	path := filepath.Join(s.dir, fmt.Sprintf("g%06d-%08d.seg", newGen, 0))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
			os.Remove(path)
		}
	}()
	if err := f.Truncate(size); err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, segHeaderSize); err != nil {
		return err
	}
	if s.fsync {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// Commit point: readers of the new manifest see only the new
	// generation; a crash before this line leaves the old one intact.
	if err := s.writeManifest(newGen); err != nil {
		return err
	}
	ok = true

	oldCur := s.cur
	oldSealed := s.sealed
	s.gen = newGen
	s.nextIdx = 1
	s.sealed = nil
	s.cur = &segFile{f: f, path: path, seq: seq, mix: mix, size: size, woff: segHeaderSize + int64(len(buf))}
	s.wbuf = s.wbuf[:0]
	s.dirty = false
	oldCur.f.Close()
	for _, p := range oldSealed {
		s.recycleIfStandard(p)
	}
	s.recycleIfStandard(oldCur.path)
	return nil
}

// recycleIfStandard recycles standard-size retired segments and
// deletes oversized ones (they would waste pool space).
func (s *SegmentStore) recycleIfStandard(path string) {
	if st, err := os.Stat(path); err == nil && st.Size() == s.segBytes {
		s.recyclePath(path)
		return
	}
	os.Remove(path)
}

// Close flushes, hardens, and closes the store.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.flushBufLocked(); err != nil {
		return err
	}
	if err := s.deviceSyncLocked(); err != nil {
		return err
	}
	s.closed = true
	if s.spare != nil {
		s.spare.f.Close()
		s.spare = nil
	}
	err := s.cur.f.Close()
	if derr := s.dirf.Close(); err == nil {
		err = derr
	}
	return err
}
