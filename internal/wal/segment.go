package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"unsafe"
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
//
// A failed write or fdatasync poisons the store: the kernel may have
// dropped the dirty pages, so a later sync that succeeds proves
// nothing. Every later Append, Sync and Truncate returns the first
// error.
type SegmentStore struct {
	dir      string
	segBytes int64
	fsync    bool
	syncHook func() // called immediately before every physical sync (stall injection)

	// ckptMu serializes checkpoints and guards their scan buffers; a
	// checkpoint holds mu only to cut the log and to swap the manifest.
	ckptMu  sync.Mutex
	scanBuf []byte
	outBuf  []byte

	mu        sync.Mutex
	dirf      *os.File
	gen       uint64
	start     uint64 // index of the first live segment (the manifest's)
	nextIdx   uint64
	nextSeq   uint64
	freeCtr   uint64
	cur       *segFile
	sealed    []string // earlier live segments, in index order
	wbuf      []byte   // staged appends, written at cur.woff on the next flush
	enc       []byte   // scratch encode buffer
	dirty     bool     // bytes written since the last physical sync
	syncs     int      // logical Sync calls (the Store contract)
	physSyncs int      // device flushes actually issued
	rollovers int
	free      []string // recycled segment files awaiting reuse
	spare     *segFile // background-prepared next segment (temp name)
	prepping  bool
	prepWG    sync.WaitGroup // the background prep, which Close waits for
	closed    bool
	err       error // first write or sync failure: the store is poisoned
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
	segHeaderSize = 16
	segMagic      = "WSEG"
	// segVersion 2 segments end in a zero frame header once sealed (see
	// rolloverLocked), so a scan can tell the end of a sealed segment
	// from damage; version 1 segments, written before, are still read.
	segVersion      = 2
	segTerminator   = 8 // a zero frame header
	manifestName    = "MANIFEST"
	defaultSegBytes = 4 << 20
	minSegBytes     = 128

	// scanChunk is the read size of the checkpoint's streaming scan and
	// the write batch of its output.
	scanChunk = 64 << 10
)

// zeroFrame is the terminator a sealed segment ends with.
var zeroFrame [segTerminator]byte

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
// dir, recovering to the last whole record of the live segments.
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
	gen, start, err := s.readManifest()
	if err != nil {
		return err
	}
	s.gen, s.start = gen, start

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
			if g == s.gen && idx >= s.start {
				live = append(live, liveSeg{idx: idx, path: path})
			} else {
				// Another generation, or a segment a committed
				// checkpoint rewrote (a crash came before its recycling).
				s.recyclePath(path)
			}
		case strings.HasPrefix(name, "prep-") && strings.HasSuffix(name, ".seg"):
			s.noteSeq(path)
			s.recyclePath(path)
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".seg"):
			// A checkpoint segment still under its temporary name: the
			// manifest swap committed it only if the manifest's start
			// names its index (a crash came before the rename).
			s.noteSeq(path)
			if _, err := fmt.Sscanf(name, "ckpt-%08d.seg", &idx); err == nil && idx == s.start && !hasSeg(entries, s.segName(idx)) {
				if err := os.Rename(path, s.segPath(idx)); err != nil {
					return err
				}
				live = append(live, liveSeg{idx: idx, path: s.segPath(idx)})
				continue
			}
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
	// recreated on the next rollover) — or the first segment whose scan
	// broke off on a damaged record. A sealed segment was hardened
	// before its successor received a byte, so damage there is not a
	// torn tail: the log ends at it, and what follows is recycled
	// rather than replayed across a gap.
	var buf []byte
	ends := make([]int64, len(live))
	activeAt := -1
	for i, ls := range live {
		sc, b, err := scanSegment(ls.path, buf, nil)
		buf = b
		if err != nil {
			return err
		}
		ends[i] = sc.end
		if sc.end > segHeaderSize || !sc.clean {
			activeAt = i
		}
		if !sc.clean {
			break
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
		s.nextIdx = s.start
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
		// A damaged header: rebuild the segment empty under a fresh seq.
		f.Close()
		sf, err := buildSegment(s.dir, s.nextSeq, act.path, s.segBytes, s.fsync)
		if err != nil {
			return err
		}
		s.nextSeq++
		if err := os.Rename(sf.path, act.path); err != nil {
			return err
		}
		sf.path = act.path
		s.cur = sf
		return nil
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
// were written under. The seq bytes count even behind a damaged magic:
// the records they seal may be intact.
func (s *SegmentStore) noteSeq(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	var b [segHeaderSize]byte
	if _, err := f.ReadAt(b[:], 0); err != nil {
		return
	}
	if seq := binary.LittleEndian.Uint64(b[8:]); seq >= s.nextSeq && seq < math.MaxUint64 {
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

// readManifest returns the live generation and the index of its first
// live segment. A manifest written before checkpoints recorded a start
// index reads as start 0.
func (s *SegmentStore) readManifest() (gen, start uint64, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		if err := s.writeManifest(1, 0); err != nil {
			return 0, 0, err
		}
		return 1, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if n, _ := fmt.Sscanf(string(data), "gen %d start %d", &gen, &start); n == 0 || gen == 0 {
		return 0, 0, fmt.Errorf("wal: bad manifest %q", data)
	}
	return gen, start, nil
}

// writeManifest atomically replaces the manifest (tmp + rename +
// directory sync), the commit point of a checkpoint.
func (s *SegmentStore) writeManifest(gen, start uint64) error {
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("gen %d start %d\n", gen, start)), 0o644); err != nil {
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

// parseSegHeader returns the sequence number and format version a
// segment header stamps.
func parseSegHeader(b []byte) (seq uint64, version byte, ok bool) {
	if len(b) < segHeaderSize || string(b[:4]) != segMagic || b[4] < 1 || b[4] > segVersion {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[8:]), b[4], true
}

func readSegHeader(f *os.File) (seq uint64, err error) {
	var b [segHeaderSize]byte
	if _, err := f.ReadAt(b[:], 0); err != nil {
		return 0, fmt.Errorf("wal: segment header: %w", err)
	}
	seq, _, ok := parseSegHeader(b[:])
	if !ok {
		return 0, fmt.Errorf("wal: %s: not a log segment", f.Name())
	}
	return seq, nil
}

// appendSegRecord encodes rec as one framed record: a 4-byte little-
// endian payload length, the seq-mixed CRC32 of the payload, then the
// payload itself (uvarint LSN, flags, and length-prefixed fields).
func appendSegRecord(dst []byte, rec Record, mix uint32) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header, backfilled
	dst = AppendUvarint(dst, uint64(rec.LSN))
	var flags byte
	if rec.Forced {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = AppendLenString(dst, rec.Tx)
	dst = AppendLenString(dst, rec.Node)
	dst = AppendLenString(dst, rec.Kind)
	dst = AppendLenBytes(dst, rec.Data)
	sealFrame(dst[start:], mix)
	return dst
}

// appendFrame re-frames an already encoded payload for a segment with
// CRC tweak mix (a checkpoint moving a record to its new segment).
func appendFrame(dst, payload []byte, mix uint32) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, payload...)
	sealFrame(dst[start:], mix)
	return dst
}

// sealFrame backfills a frame's length and seq-mixed CRC.
func sealFrame(frame []byte, mix uint32) {
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload)^mix)
}

// viewSegPayload parses one record payload without copying: the
// record's strings and Data alias p, so it is valid only while p is.
// ok is false on any truncation or trailing garbage.
func viewSegPayload(p []byte) (Record, bool) {
	var rec Record
	lsn, rest, ok := CutUvarint(p)
	if !ok || len(rest) == 0 {
		return rec, false
	}
	flags := rest[0]
	rest = rest[1:]
	var fields [4][]byte
	for i := range fields {
		if fields[i], rest, ok = CutLenBytes(rest); !ok {
			return rec, false
		}
	}
	if len(rest) != 0 {
		return rec, false
	}
	rec.LSN = int64(lsn)
	rec.Forced = flags&1 != 0
	rec.Tx = aliasString(fields[0])
	rec.Node = aliasString(fields[1])
	rec.Kind = aliasString(fields[2])
	if len(fields[3]) > 0 {
		rec.Data = fields[3]
	}
	return rec, true
}

// aliasString views b as a string without copying.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// decodeSegPayload parses one record payload into a record that owns
// its memory.
func decodeSegPayload(p []byte) (Record, bool) {
	rec, ok := viewSegPayload(p)
	if !ok {
		return rec, false
	}
	rec.Tx = strings.Clone(rec.Tx)
	rec.Node = strings.Clone(rec.Node)
	rec.Kind = strings.Clone(rec.Kind)
	if rec.Data != nil {
		rec.Data = append([]byte(nil), rec.Data...)
	}
	return rec, true
}

// readSegment scans one segment file, returning its whole records, the
// offset just past the last one, and the segment's sequence number.
func readSegment(path string) (recs []Record, validEnd int64, seq uint64, err error) {
	sc, _, err := scanSegment(path, nil, func(payload []byte) {
		rec, _ := decodeSegPayload(payload)
		recs = append(recs, rec)
	})
	return recs, sc.end, sc.seq, err
}

// segScan is what a scan learned about one segment file.
type segScan struct {
	end   int64  // offset just past the last whole record
	seq   uint64 // the header's sequence number
	clean bool   // the records ended at zeros or at the end of the file
}

// scanSegment streams the whole records of one segment file to fn (nil
// to only measure), reading through buf — grown only for a record
// larger than it — which it returns for reuse. The payload handed to
// fn aliases buf and is valid only during the call. The scan stops,
// without error, at the first zero length, short frame, CRC mismatch,
// or undecodable payload: a zero length (the preallocated region) or
// the end of the file is a clean end; anything else is a torn tail or
// damage. A file with no valid header scans as empty and not clean.
func scanSegment(path string, buf []byte, fn func(payload []byte)) (sc segScan, _ []byte, err error) {
	sc.end = segHeaderSize
	f, err := os.Open(path)
	if err != nil {
		return sc, buf, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return sc, buf, err
	}
	size := st.Size()
	var hb [segHeaderSize]byte
	if _, err := f.ReadAt(hb[:], 0); err != nil {
		return sc, buf, nil
	}
	seq, version, ok := parseSegHeader(hb[:])
	if !ok {
		return sc, buf, nil
	}
	sc.seq = seq
	// A version 1 segment has no terminator: a recycled one's stale tail
	// cannot be told from damage, so any stop counts as its end.
	legacy := version < 2
	mix := seqMix(seq)
	if len(buf) < scanChunk {
		buf = make([]byte, scanChunk)
	}
	pos := int64(segHeaderSize) // file offset of buf[0]
	c, n := 0, 0                // buf[c:n] is read but not yet consumed
	// fill makes buf[c:c+need] valid, reporting false at end of file.
	fill := func(need int) (bool, error) {
		if pos+int64(c)+int64(need) > size {
			return false, nil
		}
		if n-c >= need {
			return true, nil
		}
		copy(buf, buf[c:n])
		n -= c
		pos += int64(c)
		c = 0
		if need > len(buf) {
			nb := make([]byte, need)
			copy(nb, buf[:n])
			buf = nb
		}
		want := int(min(int64(len(buf)), size-pos))
		for n < want {
			m, err := f.ReadAt(buf[n:want], pos+int64(n))
			n += m
			if errors.Is(err, io.EOF) {
				size = pos + int64(n) // the file shrank under the scan
				break
			}
			if err != nil {
				return false, err
			}
		}
		return n-c >= need, nil
	}
	for {
		sc.end = pos + int64(c)
		if ok, err := fill(8); err != nil || !ok {
			// Fewer than a frame header's bytes left: no record can
			// follow.
			sc.clean = err == nil
			return sc, buf, err
		}
		ln := int(binary.LittleEndian.Uint32(buf[c:]))
		crc := binary.LittleEndian.Uint32(buf[c+4:])
		if ln == 0 {
			sc.clean = crc == 0 || legacy
			return sc, buf, nil
		}
		sc.clean = legacy
		if ok, err := fill(8 + ln); err != nil || !ok {
			return sc, buf, err
		}
		payload := buf[c+8 : c+8+ln]
		if crc32.ChecksumIEEE(payload)^mix != crc {
			return sc, buf, nil
		}
		if _, ok := viewSegPayload(payload); !ok {
			return sc, buf, nil
		}
		if fn != nil {
			fn(payload)
		}
		c += 8 + ln
	}
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
	// The header, then a terminator: a recycled file's stale bytes
	// never read as the end of a sealed segment's records.
	var hdr [segHeaderSize + segTerminator]byte
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

// segName names the live segment at index idx.
func (s *SegmentStore) segName(idx uint64) string {
	return fmt.Sprintf("g%06d-%08d.seg", s.gen, idx)
}

func (s *SegmentStore) segPath(idx uint64) string { return filepath.Join(s.dir, s.segName(idx)) }

// hasSeg reports whether the directory listing holds name.
func hasSeg(entries []os.DirEntry, name string) bool {
	for _, e := range entries {
		if e.Name() == name {
			return true
		}
	}
	return false
}

// install renames a prepared segment to its final indexed name and
// makes it the current write target. The directory sync makes the
// rename durable before any record lands in the file.
func (s *SegmentStore) install(sf *segFile) error {
	path := s.segPath(s.nextIdx)
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

// usableLocked reports why the store refuses writes: closed, or
// poisoned by an earlier failure. Caller holds s.mu.
func (s *SegmentStore) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.err
}

// poisonLocked records err as the store's first failure. Caller holds
// s.mu.
func (s *SegmentStore) poisonLocked(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("wal: segment store poisoned: %w", err)
	}
	return s.err
}

// Append stages rec in the write buffer, rolling to the next segment
// when it does not fit.
func (s *SegmentStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
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
		s.prepWG.Add(1)
		go func() {
			defer s.prepWG.Done()
			s.prepSpare()
		}()
	}
	return nil
}

// rolloverLocked seals the current segment (flushing and hardening
// its tail, ended by a terminator when it fits) and installs the next
// one, sized for a record of need bytes.
func (s *SegmentStore) rolloverLocked(need int64) error {
	if err := s.flushBufLocked(); err != nil {
		return err
	}
	// The write point stays before the terminator, so should the
	// rollover fail, the next append overwrites it.
	if s.cur.woff+segTerminator <= s.cur.size {
		if _, err := s.cur.f.WriteAt(zeroFrame[:], s.cur.woff); err != nil {
			return s.poisonLocked(err)
		}
		s.dirty = true
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
// A failed write poisons the store.
func (s *SegmentStore) flushBufLocked() error {
	if len(s.wbuf) == 0 {
		return nil
	}
	if _, err := s.cur.f.WriteAt(s.wbuf, s.cur.woff); err != nil {
		return s.poisonLocked(err)
	}
	s.cur.woff += int64(len(s.wbuf))
	s.wbuf = s.wbuf[:0]
	s.dirty = true
	return nil
}

// fdatasyncLocked issues one device flush of the current segment; a
// failure poisons the store.
func (s *SegmentStore) fdatasyncLocked() error {
	if s.syncHook != nil {
		s.syncHook()
	}
	if s.fsync {
		if err := fdatasync(s.cur.f); err != nil {
			return s.poisonLocked(err)
		}
		s.physSyncs++
	}
	s.dirty = false
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
	return s.fdatasyncLocked()
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
	if err := s.usableLocked(); err != nil {
		return err
	}
	if err := s.flushBufLocked(); err != nil {
		return err
	}
	if err := s.fdatasyncLocked(); err != nil {
		return err
	}
	s.syncs++
	return nil
}

// Records scans the live segments and returns every whole record,
// stopping cleanly at a torn tail. The staged buffer is written first
// so the result includes everything appended (the Log layer models the
// volatile buffer).
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

// TruncatesBesideForces implements Truncater: Truncate orders only its
// manifest swap with concurrent syncs.
func (s *SegmentStore) TruncatesBesideForces() bool { return true }

// CheckpointFloor implements Truncater: one segment. A checkpoint seals
// the current segment and recycles only whole ones.
func (s *SegmentStore) CheckpointFloor() int64 { return s.segBytes }

// Truncate implements Truncater. It checkpoints the store beside
// concurrent appends and syncs, in three steps, holding the store
// lock only for the first and the last:
//
//  1. Cut: reserve the next segment index for the checkpoint and roll
//     over, so every record so far sits in a sealed segment and every
//     later append lands in a segment after the reserved index.
//  2. Rewrite: stream the sealed segments through a reused buffer and
//     copy the records keep accepts, in order, into a new segment under
//     a temporary name (ckpt-<index>.seg). keep sees a view of each
//     record that is valid only during the call (its strings alias the
//     scan buffer), so it must not retain them.
//  3. Swap: the manifest's start index moves to the reserved index —
//     the commit point — the checkpoint segment takes its final name,
//     and the rewritten segments are recycled.
//
// A crash before the swap leaves the old start in force, and the next
// open recycles the temporary file; a crash between the manifest write
// and the rename leaves the temporary file that the new start names,
// and the next open renames it; a crash before the recycling leaves
// segments below the start, which the next open recycles. at, if
// non-nil, is consulted at two crash points ("before-swap",
// "after-swap"); when it reports true the checkpoint stops there with
// ErrClosed, as a crash would.
func (s *SegmentStore) Truncate(keep func(Record) bool, at func(stage string) bool) (kept, dropped int, err error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return 0, 0, err
	}
	idx := s.nextIdx
	s.nextIdx++
	if err := s.rolloverLocked(0); err != nil {
		s.mu.Unlock()
		return 0, 0, err
	}
	rewrite := append([]string(nil), s.sealed...)
	seq := s.nextSeq
	s.nextSeq++
	var src string
	if n := len(s.free); n > 0 {
		src = s.free[n-1]
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()

	sf, err := buildSegment(s.dir, seq, src, s.segBytes, s.fsync)
	if err != nil {
		return 0, 0, err
	}
	tmp := filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.seg", idx))
	if kept, dropped, err = s.rewriteInto(sf, rewrite, keep); err == nil {
		err = os.Rename(sf.path, tmp)
	}
	sf.f.Close()
	if err == nil && at != nil && at("before-swap") {
		err = ErrClosed
	}
	if err != nil {
		os.Remove(sf.path)
		os.Remove(tmp)
		return 0, 0, err
	}

	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		os.Remove(tmp)
		return 0, 0, err
	}
	path := s.segPath(idx)
	err = s.writeManifest(s.gen, idx)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = s.syncDir()
	}
	if err != nil {
		err = s.poisonLocked(err)
		s.mu.Unlock()
		return 0, 0, err
	}
	s.start = idx
	s.sealed = append([]string{path}, s.sealed[len(rewrite):]...)
	s.mu.Unlock()

	if at != nil && at("after-swap") {
		return kept, dropped, ErrClosed
	}
	s.mu.Lock()
	for _, p := range rewrite {
		s.recycleIfStandard(p)
	}
	s.mu.Unlock()
	return kept, dropped, nil
}

// rewriteInto streams the records of the given segments through keep
// and writes the kept ones, re-sealed to sf's sequence number, into
// sf, then hardens it. Caller holds s.ckptMu (the scan buffers).
func (s *SegmentStore) rewriteInto(sf *segFile, paths []string, keep func(Record) bool) (kept, dropped int, err error) {
	out := s.outBuf[:0]
	woff := int64(segHeaderSize)
	flush := func() error {
		if _, err := sf.f.WriteAt(out, woff); err != nil {
			return err
		}
		woff += int64(len(out))
		out = out[:0]
		return nil
	}
	defer func() { s.outBuf = out[:0] }()
	for _, path := range paths {
		var werr error
		_, s.scanBuf, err = scanSegment(path, s.scanBuf, func(payload []byte) {
			rec, _ := viewSegPayload(payload)
			if !keep(rec) {
				dropped++
				return
			}
			kept++
			out = appendFrame(out, payload, sf.mix)
			if len(out) >= scanChunk && werr == nil {
				werr = flush()
			}
		})
		if err == nil {
			err = werr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	out = append(out, zeroFrame[:]...)
	if err := flush(); err != nil {
		return 0, 0, err
	}
	if s.fsync {
		if err := sf.f.Sync(); err != nil {
			return 0, 0, err
		}
	}
	return kept, dropped, nil
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

// Close flushes, hardens, and closes the store, and waits for a
// background segment preparation to finish. A poisoned store closes
// its files and returns the poisoning error.
func (s *SegmentStore) Close() error {
	defer s.prepWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.err
	if err == nil {
		err = s.flushBufLocked()
	}
	if err == nil {
		err = s.deviceSyncLocked()
	}
	s.closed = true
	if s.spare != nil {
		s.spare.f.Close()
		s.spare = nil
	}
	if cerr := s.cur.f.Close(); err == nil {
		err = cerr
	}
	if derr := s.dirf.Close(); err == nil {
		err = derr
	}
	return err
}
