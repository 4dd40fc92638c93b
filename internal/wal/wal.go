// Package wal implements Frangipani's per-server write-ahead redo
// log (paper §4). Each Frangipani server owns a private, bounded
// (128 KB), circular log stored inside Petal. Metadata updates are
// described by log records carrying, for each affected 512-byte
// metadata block, the byte changes and a new version number. A
// record is written to the log (group-committed) before the metadata
// blocks themselves are updated in place.
//
// Recovery reads the log, finds its end by the monotonically
// increasing sequence number attached to each 512-byte log block, and
// replays records in order. A change is applied only if the on-disk
// block's version is older than the record's ("recovery never replays
// a log record describing an update that has already been
// completed"). Records are protected by a CRC so a torn or
// half-reclaimed region is skipped rather than misapplied.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
)

// Geometry constants.
const (
	// BlockSize is the log block size; each carries an 10-byte header.
	BlockSize = 512
	// blockHdr is LSN (8 bytes) + first-record anchor offset (2).
	blockHdr = 10
	// payloadPerBlock is the record stream capacity per log block.
	payloadPerBlock = BlockSize - blockHdr
	// MaxUpdateOffset bounds update data within a metadata block: the
	// last 8 bytes of every 512-byte metadata block hold its version
	// number and may only change through the version mechanism.
	MaxUpdateOffset = 512 - 8
	// DefaultLogSize is the paper's per-server log size.
	DefaultLogSize = 128 << 10
	// recHdrLen is magic(2) + len(4) + seq(8) + crc(4).
	recHdrLen = 18
	recMagic  = 0x4C52 // "LR"
	noAnchor  = 0xFFFF
)

// Errors.
var (
	ErrTooLarge  = errors.New("wal: record exceeds log capacity")
	ErrBadUpdate = errors.New("wal: update touches version trailer or out of bounds")
)

// BlockRegion is the storage a log lives on: a byte range addressed
// from 0, sector-aligned I/O (a window of a Petal virtual disk).
type BlockRegion interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// TracedRegion is a BlockRegion whose I/O can run on behalf of a
// traced operation: a log flush passes its span, so the region's
// Petal RPCs join the flushing operation's trace and are charged to
// its principal. Flushes use it when the region implements it.
type TracedRegion interface {
	ReadAtIn(sp *obs.Span, p []byte, off int64) error
	WriteAtIn(sp *obs.Span, p []byte, off int64) error
}

// BlockDev is the device holding the metadata blocks that replay
// writes to (the whole Petal virtual disk).
type BlockDev = BlockRegion

// Update describes one sub-block metadata change.
type Update struct {
	Addr int64  // byte address of the 512-byte metadata block
	Off  int    // offset of the change within the block (< 504)
	Data []byte // new bytes
	Ver  uint64 // new version number for the block
}

// BlockVersion reads the version trailer of a 512-byte metadata
// block.
func BlockVersion(block []byte) uint64 {
	return binary.LittleEndian.Uint64(block[MaxUpdateOffset:])
}

// SetBlockVersion writes the version trailer.
func SetBlockVersion(block []byte, v uint64) {
	binary.LittleEndian.PutUint64(block[MaxUpdateOffset:], v)
}

// Log is one server's in-memory view of its private log region.
type Log struct {
	region BlockRegion
	size   int64 // bytes
	blocks int64 // log blocks

	mu       sync.Mutex
	nextSeq  int64
	head     int64 // stream position of next byte to write
	tail     int64 // stream position of oldest unreleased record
	buf      []byte
	bufStart int64 // stream position of buf[0]
	pending  []recSpan
	reclaim  func(throughSeq int64)
	// reclaiming single-flights the paced background reclaim kicked
	// when occupancy crosses the high-water mark, so writers stop
	// hitting the synchronous log-full wall in the first place.
	reclaiming bool

	// Group commit: at most one region write is in flight; concurrent
	// Flush callers whose bytes it covers piggyback on it instead of
	// issuing their own.
	flushing  bool
	flushDone chan struct{} // closed when the in-flight write completes
	durable   int64         // stream position known durable in the region
	lastFlush int64         // ns timestamp of the last successful flush

	appends        *obs.Counter
	flushes        *obs.Counter
	wrote          *obs.Counter
	groupMerges    *obs.Counter
	asyncReclaims  *obs.Counter // paced reclaims kicked in the background
	stallReclaims  *obs.Counter // appends that hit the synchronous log-full wall
	maxFlushBlocks *obs.Gauge

	// Observability; set once by SetObs before concurrent use, or
	// left nil/standalone for unwired logs.
	now       obs.NowFunc
	tr        *obs.Tracer
	appendLat *obs.Histogram
	flushLat  *obs.Histogram
	groupLat  *obs.Histogram
	jr        *obs.Journal      // flight recorder (nil-safe)
	acct      *obs.AccountTable // per-principal accounting (nil-safe)
}

type recSpan struct {
	seq        int64
	start, end int64 // stream positions
}

// New opens a fresh (logically empty) log over the region. The
// region is not zeroed; sequence numbers distinguish old blocks.
func New(region BlockRegion, size int64) *Log {
	return &Log{
		region:         region,
		size:           size,
		blocks:         size / BlockSize,
		appends:        obs.NewCounter(),
		flushes:        obs.NewCounter(),
		wrote:          obs.NewCounter(),
		groupMerges:    obs.NewCounter(),
		asyncReclaims:  obs.NewCounter(),
		stallReclaims:  obs.NewCounter(),
		maxFlushBlocks: obs.NewGauge(),
	}
}

// SetObs attaches the log's metrics to a registry under
// "wal.<metric>#<instance>" and enables latency histograms and flush
// spans. Call right after New, before concurrent use; a nil registry
// keeps the standalone counters.
func (l *Log) SetObs(reg *obs.Registry, instance string) {
	if reg == nil {
		return
	}
	l.mu.Lock()
	l.appends = reg.Counter("wal.appends#" + instance)
	l.flushes = reg.Counter("wal.flushes#" + instance)
	l.wrote = reg.Counter("wal.wrote.bytes#" + instance)
	l.groupMerges = reg.Counter("wal.groupcommit.merges#" + instance)
	l.asyncReclaims = reg.Counter("wal.reclaim.async#" + instance)
	l.stallReclaims = reg.Counter("wal.reclaim.stall#" + instance)
	l.maxFlushBlocks = reg.Gauge("wal.flush.maxblocks#" + instance)
	l.now = reg.Now
	l.tr = reg.Tracer()
	l.appendLat = reg.Histogram("wal.append.latency#" + instance)
	l.flushLat = reg.Histogram("wal.flush.latency#" + instance)
	l.groupLat = reg.Histogram("wal.groupcommit.latency#" + instance)
	l.jr = reg.Journal(instance)
	l.acct = reg.Accounts()
	l.mu.Unlock()
}

// SetReclaim registers the callback invoked when the log fills: the
// owner must make the metadata covered by records up to throughSeq
// durable (writing dirty blocks to Petal) and then call Release.
// Per the paper, "Frangipani reclaims the oldest 25% of the log
// space for new log entries" at that point.
func (l *Log) SetReclaim(f func(throughSeq int64)) {
	l.mu.Lock()
	l.reclaim = f
	l.mu.Unlock()
}

// streamCapacity is the usable byte capacity of the circular record
// stream.
func (l *Log) streamCapacity() int64 { return l.blocks * payloadPerBlock }

// encode serializes a record.
func encodeRecord(seq int64, ups []Update) ([]byte, error) {
	body := make([]byte, 0, 128)
	var tmp [10]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(ups)))
	body = append(body, tmp[:2]...)
	for _, u := range ups {
		if u.Off < 0 || len(u.Data) == 0 || u.Off+len(u.Data) > MaxUpdateOffset {
			return nil, fmt.Errorf("%w: off=%d len=%d", ErrBadUpdate, u.Off, len(u.Data))
		}
		var h [20]byte
		binary.LittleEndian.PutUint64(h[0:8], uint64(u.Addr))
		binary.LittleEndian.PutUint64(h[8:16], u.Ver)
		binary.LittleEndian.PutUint16(h[16:18], uint16(u.Off))
		binary.LittleEndian.PutUint16(h[18:20], uint16(len(u.Data)))
		body = append(body, h[:]...)
		body = append(body, u.Data...)
	}
	rec := make([]byte, recHdrLen+len(body))
	binary.LittleEndian.PutUint16(rec[0:2], recMagic)
	binary.LittleEndian.PutUint32(rec[2:6], uint32(len(body)))
	binary.LittleEndian.PutUint64(rec[6:14], uint64(seq))
	binary.LittleEndian.PutUint32(rec[14:18], crc32.ChecksumIEEE(body))
	copy(rec[recHdrLen:], body)
	return rec, nil
}

// Append is AppendIn outside any operation.
func (l *Log) Append(ups []Update) (int64, error) { return l.AppendIn(nil, ups) }

// AppendIn buffers a record describing the updates on behalf of sp's
// operation and returns its sequence number. The record is durable
// only after Flush. If the log is too full, the reclaim callback runs
// synchronously first.
func (l *Log) AppendIn(sp *obs.Span, ups []Update) (int64, error) {
	l.mu.Lock()
	var start int64
	if l.now != nil {
		start = l.now()
	}
	seq := l.nextSeq + 1
	rec, err := encodeRecord(seq, ups)
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	need := int64(len(rec))
	if need > l.streamCapacity()/2 {
		l.mu.Unlock()
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, need)
	}
	for l.head+need-l.tail > l.streamCapacity() {
		// Log full: reclaim the oldest quarter. This is the stall
		// backstop — the paced background reclaim below aims to keep
		// writers from ever reaching it.
		l.stallReclaims.Inc()
		target := l.tail + l.streamCapacity()/4
		var through int64
		for _, r := range l.pending {
			if r.start < target {
				through = r.seq
			}
		}
		cb := l.reclaim
		l.jr.RecordIn(sp, "wal", "reclaim", "full", uint64(through), l.head-l.tail, "")
		if cb == nil || through == 0 {
			// No reclaimer or nothing reclaimable: drop the oldest
			// quarter accounting anyway (records there must already
			// be released).
			l.dropThroughLocked(target)
			continue
		}
		l.mu.Unlock()
		cb(through)
		l.mu.Lock()
	}
	l.nextSeq = seq
	l.appends.Inc()
	l.acct.WAL(sp.Who(), need)
	l.jr.RecordIn(sp, "wal", "append", "ok", uint64(seq), need, "")
	l.pending = append(l.pending, recSpan{seq: seq, start: l.head, end: l.head + need})
	l.buf = append(l.buf, rec...)
	l.head += need
	l.maybeReclaimLocked()
	if l.now != nil {
		l.appendLat.Record(l.now() - start)
	}
	l.mu.Unlock()
	return seq, nil
}

// maybeReclaimLocked paces log reclamation: when occupancy crosses
// three quarters of capacity, kick ONE background reclaim of the
// oldest quarter instead of waiting for the log to fill and stalling
// the appender synchronously. At high server counts the synchronous
// stalls serialize — every server's writers park behind its own
// log-full flush at roughly the same fill rate — so reclaiming ahead
// of the wall converts a stop-the-world pause into overlapped
// background write-back. Caller holds l.mu.
func (l *Log) maybeReclaimLocked() {
	if l.reclaiming || l.reclaim == nil {
		return
	}
	if l.head-l.tail <= l.streamCapacity()*3/4 {
		return
	}
	target := l.tail + l.streamCapacity()/4
	var through int64
	for _, sp := range l.pending {
		if sp.start < target {
			through = sp.seq
		}
	}
	if through == 0 {
		return
	}
	l.reclaiming = true
	l.asyncReclaims.Inc()
	l.jr.Record("wal", "reclaim", "async", uint64(through), l.head-l.tail, "")
	cb := l.reclaim
	go func() {
		cb(through)
		l.mu.Lock()
		l.reclaiming = false
		l.mu.Unlock()
	}()
}

func (l *Log) dropThroughLocked(pos int64) {
	if pos > l.head {
		pos = l.head
	}
	if pos > l.tail {
		l.tail = pos
	}
	for len(l.pending) > 0 && l.pending[0].end <= l.tail {
		l.pending = l.pending[1:]
	}
}

// Release marks all records with seq <= throughSeq as reclaimable:
// their metadata updates have reached their permanent locations.
func (l *Log) Release(throughSeq int64) {
	l.mu.Lock()
	for len(l.pending) > 0 && l.pending[0].seq <= throughSeq {
		l.tail = l.pending[0].end
		l.pending = l.pending[1:]
	}
	if len(l.pending) == 0 {
		l.tail = l.head
	}
	// The flush buffer can shed bytes already released and flushed.
	l.mu.Unlock()
}

// Flush is FlushIn outside any operation.
func (l *Log) Flush() error { return l.FlushIn(nil) }

// FlushIn writes all buffered records to the region (group commit) on
// behalf of sp's operation and returns once every record appended
// before the call is durable there. Concurrent callers merge: while
// one write is in flight, later callers wait for it and piggyback if
// it covered their bytes, so N concurrent Flushes cost far fewer than
// N region writes.
func (l *Log) FlushIn(sp *obs.Span) error {
	l.mu.Lock()
	target := l.head
	l.mu.Unlock()
	for {
		l.mu.Lock()
		if l.durable >= target {
			l.mu.Unlock()
			return nil
		}
		if l.flushing {
			// Piggyback: wait for the in-flight write, then re-check.
			ch := l.flushDone
			l.groupMerges.Inc()
			l.jr.RecordIn(sp, "wal", "groupcommit", "merge", 0, target-l.durable, "")
			now := l.now
			l.mu.Unlock()
			var gstart int64
			if now != nil {
				gstart = now()
			}
			<-ch
			if now != nil {
				l.groupLat.Record(now() - gstart)
			}
			continue
		}
		if len(l.buf) == 0 {
			// Nothing buffered and no write in flight: everything
			// appended before the call is already durable.
			l.mu.Unlock()
			return nil
		}
		buf, start := l.buf, l.bufStart
		l.buf = nil
		l.bufStart = l.head
		l.flushing = true
		l.flushDone = make(chan struct{})
		l.flushes.Inc()
		pend := append([]recSpan(nil), l.pending...)
		now, tr := l.now, l.tr
		l.mu.Unlock()

		fsp := tr.Child(sp, "wal", "flush")
		var fstart int64
		if now != nil {
			fstart = now()
		}
		err := l.writeStream(fsp, buf, start, pend)
		fsp.Done()
		if now != nil {
			l.flushLat.Record(now() - fstart)
		}
		if err != nil {
			l.jr.RecordIn(sp, "wal", "flush", "fail", uint64(start), int64(len(buf)), err.Error())
		} else {
			l.jr.RecordIn(sp, "wal", "flush", "ok", uint64(start), int64(len(buf)), "")
		}

		l.mu.Lock()
		if err == nil {
			if end := start + int64(len(buf)); end > l.durable {
				l.durable = end
			}
			if l.now != nil {
				l.lastFlush = l.now()
			}
		} else {
			// Put the unwritten bytes back so a retry (after a
			// transient Petal failure) rewrites them; appends during
			// the attempt extended l.buf from start+len(buf).
			l.buf = append(buf, l.buf...)
			l.bufStart = start
		}
		l.flushing = false
		close(l.flushDone)
		l.mu.Unlock()
		if err != nil {
			return err
		}
		// Records appended during the write may still be below target;
		// loop to cover them.
	}
}

// writeStream makes the stream bytes [start, start+len(buf)) durable.
// Affected log blocks are assembled in memory — LSN, anchor, payload —
// and written with one WriteAt per physically contiguous run (at most
// two when the circular log wraps) instead of per-block I/O.
func (l *Log) writeStream(sp *obs.Span, buf []byte, start int64, pend []recSpan) error {
	read, write := l.region.ReadAt, l.region.WriteAt
	if tr, ok := l.region.(TracedRegion); ok {
		read = func(p []byte, off int64) error { return tr.ReadAtIn(sp, p, off) }
		write = func(p []byte, off int64) error { return tr.WriteAtIn(sp, p, off) }
	}
	firstBlk := start / payloadPerBlock
	lastBlk := (start + int64(len(buf)) - 1) / payloadPerBlock
	nBlks := lastBlk - firstBlk + 1
	// Assemble the run in a pooled buffer: every layer below copies
	// synchronously (the Petal client snapshots write payloads before
	// they reach the carrier), so the buffer is dead once WriteAt
	// returns and steady-state flushing recycles a small working set.
	// Recovery treats zero bytes past the stream end as a clean stop,
	// so the recycled buffer is cleared like a fresh allocation.
	bigp := bufpool.Get(int(nBlks * BlockSize))
	defer bufpool.Put(bigp)
	big := *bigp
	clear(big)
	// Preserve the prior payload of a leading partial block.
	if start%payloadPerBlock != 0 {
		off := firstBlk % l.blocks * BlockSize
		if err := read(big[blockHdr:BlockSize], off+blockHdr); err != nil {
			return err
		}
	}
	for b := firstBlk; b <= lastBlk; b++ {
		blk := big[(b-firstBlk)*BlockSize : (b-firstBlk+1)*BlockSize]
		blkStart := b * payloadPerBlock
		blkEnd := blkStart + payloadPerBlock
		binary.LittleEndian.PutUint64(blk[0:8], uint64(b+1)) // LSN, monotone
		binary.LittleEndian.PutUint16(blk[8:10], anchorIn(pend, blkStart, blkEnd))
		lo := max64(blkStart, start)
		hi := min64(blkEnd, start+int64(len(buf)))
		copy(blk[blockHdr+(lo-blkStart):], buf[lo-start:hi-start])
	}
	var written int64
	for idx := int64(0); idx < nBlks; {
		phys := (firstBlk + idx) % l.blocks
		runLen := min64(nBlks-idx, l.blocks-phys)
		if err := write(big[idx*BlockSize:(idx+runLen)*BlockSize], phys*BlockSize); err != nil {
			return err
		}
		written += runLen * BlockSize
		idx += runLen
	}
	l.wrote.Add(written)
	l.maxFlushBlocks.SetMax(nBlks)
	return nil
}

// anchorIn returns the payload offset of the first record starting
// inside the given stream range, or noAnchor.
func anchorIn(pend []recSpan, blkStart, blkEnd int64) uint16 {
	best := int64(-1)
	for _, sp := range pend {
		if sp.start >= blkStart && sp.start < blkEnd {
			if best == -1 || sp.start < best {
				best = sp.start
			}
		}
	}
	if best == -1 {
		return noAnchor
	}
	return uint16(best - blkStart)
}

// Stats aggregates the log's counters for benchmarks.
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Flushes is the number of group-commit region writes issued.
	Flushes int64
	// BytesWritten is the log bytes written to the region.
	BytesWritten int64
	// GroupMerges counts Flush callers that piggybacked on another
	// caller's in-flight write instead of issuing their own.
	GroupMerges int64
	// AsyncReclaims counts paced reclaims kicked in the background at
	// the high-water mark; StallReclaims counts appends that still hit
	// the synchronous log-full wall (the pacing's failure mode).
	AsyncReclaims int64
	StallReclaims int64
	// MaxFlushBlocks is the largest single flush, in log blocks.
	MaxFlushBlocks int64
}

// Stats returns a snapshot of the log's counters. The counters are
// individually race-safe, so no lock is needed (the old
// implementation read several fields under the log mutex; the
// registry-backed counters made that unnecessary).
func (l *Log) Stats() Stats {
	return Stats{
		Appends:        l.appends.Value(),
		Flushes:        l.flushes.Value(),
		BytesWritten:   l.wrote.Value(),
		GroupMerges:    l.groupMerges.Value(),
		AsyncReclaims:  l.asyncReclaims.Value(),
		StallReclaims:  l.stallReclaims.Value(),
		MaxFlushBlocks: l.maxFlushBlocks.Value(),
	}
}

// FlushHealth reports the write-stall signals for health probing:
// how many stream bytes sit buffered but not yet durable, and the
// timestamp (registry clock, ns) of the last successful flush — 0
// until the first one.
func (l *Log) FlushHealth() (backlogBytes int64, lastFlushNs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head - l.durable, l.lastFlush
}

// Pending returns the sequence range of records not yet released,
// and whether any exist.
func (l *Log) Pending() (low, high int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return 0, 0, false
	}
	return l.pending[0].seq, l.pending[len(l.pending)-1].seq, true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// RecoveredRecord is one decoded log record.
type RecoveredRecord struct {
	Seq     int64
	Updates []Update
}

// Scan reads a log region and returns the valid records found, in
// sequence order. It tolerates torn and wrapped logs: blocks are
// ordered by LSN, the end of the log is where the LSN sequence
// breaks, parsing starts at record anchors, and CRC-invalid records
// are skipped with a re-anchor at the next block.
func Scan(region BlockRegion, size int64) ([]RecoveredRecord, error) {
	blocks := size / BlockSize
	type blkInfo struct {
		lsn    int64
		anchor uint16
		data   []byte
	}
	// One bulk read of the whole region: a log is only 128 KB, and
	// per-block round trips to Petal would dominate recovery time.
	whole := make([]byte, blocks*BlockSize)
	if err := region.ReadAt(whole, 0); err != nil {
		return nil, err
	}
	var infos []blkInfo
	for i := int64(0); i < blocks; i++ {
		blk := whole[i*BlockSize : (i+1)*BlockSize]
		lsn := int64(binary.LittleEndian.Uint64(blk[0:8]))
		if lsn == 0 {
			continue // never written
		}
		infos = append(infos, blkInfo{
			lsn:    lsn,
			anchor: binary.LittleEndian.Uint16(blk[8:10]),
			data:   blk[blockHdr:],
		})
	}
	if len(infos) == 0 {
		return nil, nil
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].lsn < infos[b].lsn })
	// Keep only the contiguous LSN run ending at the maximum: older
	// detached runs are fully-reclaimed space.
	end := len(infos) - 1
	start := end
	for start > 0 && infos[start-1].lsn == infos[start].lsn-1 {
		start--
	}
	infos = infos[start:]

	// Parse the concatenated payload stream from the first anchor.
	stream := make([]byte, 0, len(infos)*payloadPerBlock)
	anchors := []int{} // stream offsets where records may start
	for i, inf := range infos {
		if inf.anchor != noAnchor && int(inf.anchor) < payloadPerBlock {
			anchors = append(anchors, i*payloadPerBlock+int(inf.anchor))
		}
		stream = append(stream, inf.data...)
	}
	var out []RecoveredRecord
	seen := make(map[int64]bool)
	for ai := 0; ai < len(anchors); ai++ {
		pos := anchors[ai]
		for pos+recHdrLen <= len(stream) {
			if binary.LittleEndian.Uint16(stream[pos:pos+2]) != recMagic {
				break
			}
			blen := int(binary.LittleEndian.Uint32(stream[pos+2 : pos+6]))
			seq := int64(binary.LittleEndian.Uint64(stream[pos+6 : pos+14]))
			crc := binary.LittleEndian.Uint32(stream[pos+14 : pos+18])
			if blen < 2 || pos+recHdrLen+blen > len(stream) {
				break
			}
			body := stream[pos+recHdrLen : pos+recHdrLen+blen]
			if crc32.ChecksumIEEE(body) != crc {
				break // torn record; re-anchor at a later block
			}
			if !seen[seq] {
				rec, err := decodeBody(seq, body)
				if err == nil {
					out = append(out, rec)
					seen[seq] = true
				}
			}
			pos += recHdrLen + blen
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}

func decodeBody(seq int64, body []byte) (RecoveredRecord, error) {
	rec := RecoveredRecord{Seq: seq}
	n := int(binary.LittleEndian.Uint16(body[0:2]))
	pos := 2
	for i := 0; i < n; i++ {
		if pos+20 > len(body) {
			return rec, errors.New("wal: truncated update header")
		}
		u := Update{
			Addr: int64(binary.LittleEndian.Uint64(body[pos : pos+8])),
			Ver:  binary.LittleEndian.Uint64(body[pos+8 : pos+16]),
			Off:  int(binary.LittleEndian.Uint16(body[pos+16 : pos+18])),
		}
		dlen := int(binary.LittleEndian.Uint16(body[pos+18 : pos+20]))
		pos += 20
		if pos+dlen > len(body) {
			return rec, errors.New("wal: truncated update data")
		}
		u.Data = append([]byte(nil), body[pos:pos+dlen]...)
		pos += dlen
		rec.Updates = append(rec.Updates, u)
	}
	return rec, nil
}

// Replay applies recovered records to the metadata device: for each
// block a record updates, the changes land only if the block's
// on-disk version is older than the record's, preserving the paper's
// "at most one log can hold an uncompleted update for any given
// block" invariant. All of one record's updates to a block share a
// version and are applied together (a record is atomic per block).
// It returns how many blocks were updated.
func Replay(records []RecoveredRecord, dev BlockDev) (applied int, err error) {
	for _, rec := range records {
		// Group this record's updates by block, preserving order.
		byBlock := make(map[int64][]Update)
		var order []int64
		for _, u := range rec.Updates {
			if _, seen := byBlock[u.Addr]; !seen {
				order = append(order, u.Addr)
			}
			byBlock[u.Addr] = append(byBlock[u.Addr], u)
		}
		for _, addr := range order {
			ups := byBlock[addr]
			blk := make([]byte, BlockSize)
			if err := dev.ReadAt(blk, addr); err != nil {
				return applied, err
			}
			if BlockVersion(blk) >= ups[0].Ver {
				continue // already completed
			}
			for _, u := range ups {
				copy(blk[u.Off:], u.Data)
			}
			SetBlockVersion(blk, ups[0].Ver)
			if err := dev.WriteAt(blk, addr); err != nil {
				return applied, err
			}
			applied++
		}
	}
	return applied, nil
}
