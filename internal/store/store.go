package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qframan/internal/hessian"
	"qframan/internal/obs"
)

// Store is the on-disk checkpoint/cache. Layout:
//
//	<dir>/manifest.log   append-only manifest: header, then put/ref/del lines
//	<dir>/seg-<n>        append-only segment files of CRC-guarded records
//
// A record is appended to the current segment; segments rotate at
// segmentBytes. Its `put <key> <natoms> <seg> <off> <len>` manifest line and
// its index entry are published only after the fsync that covers its bytes
// has returned, and only then does the Put return. Concurrent puts share
// that fsync (group commit): the first to find no commit in flight leads —
// it syncs every record appended so far and publishes them all — while the
// others wait for it on the calling goroutines. A crash therefore leaves one
// of three states, all safe: (a) bytes without a line — orphaned dead bytes,
// the fragment recomputes; (b) a line pointing past the end of its segment
// (the segment lost its tail) — dropped at replay, the fragment recomputes;
// (c) line and bytes — served after the record's CRC verifies on read. No
// state decodes into wrong data, and the manifest is bookkeeping: a torn
// tail or a lost line degrades to a recomputation, never to corruption. A
// record that fails its CRC on read is evicted by a `del` tombstone line.
//
// One process opens a store at a time. Within it, a Store may be shared by
// any number of goroutines — and by concurrent scheduler runs of a serving
// daemon. The index, the manifest and the segment tails are guarded by s.mu;
// published byte ranges are never rewritten, so a reader needs the lock
// only to look its range up. SetObs may be called concurrently by every run
// sharing the store: the instruments are atomic pointers, set once.
type Store struct {
	dir string

	mu       sync.Mutex
	manifest *os.File // nil once closed
	idx      map[Key]*entry
	segs     map[int]*segment
	cur      int // segment receiving appends
	logical  int // put+ref manifest records across all runs
	replayed int // manifest records replayed at Open

	// Group commit, guarded by mu: filling collects the records appended
	// since the last leader took its batch; syncing is set while a leader
	// fsyncs outside the lock; committed is broadcast when it finishes.
	filling   *group
	syncing   bool
	committed sync.Cond

	// Instruments; nil until SetObs, atomic because concurrent sched runs
	// sharing the store each attach their scope. Nil-safe to observe.
	// obsOnce makes the first attachment win exactly once.
	obsGet     atomic.Pointer[obs.Histogram]
	obsPut     atomic.Pointer[obs.Histogram]
	obsFsyncs  atomic.Pointer[obs.Counter]
	obsRecords atomic.Pointer[obs.Counter]
	obsOnce    sync.Once
}

// entry is the in-memory index of one published record. Entries are
// immutable: a re-put publishes a new one.
type entry struct {
	natoms int
	seg    int
	off, n int64
	// prior marks records that existed when the store was opened and that
	// this process has not re-put — the currency of -resume accounting.
	prior bool
}

// segment is one segment file: its handle, opened on first use, and its
// length, which is where the next append lands.
type segment struct {
	f    *os.File
	size int64
}

// group is one group commit: records appended to segments, awaiting the
// fsync that publishes them.
type group struct {
	recs  []staged
	files []*os.File // distinct segments the records were appended to
	done  bool
	err   error
}

// staged is a record whose bytes are in a segment but not yet durable.
type staged struct {
	key    Key
	natoms int
	seg    int
	off, n int64
}

// RawRecord is one canonical record blob and its key, for PutRaws.
type RawRecord struct {
	Key    Key
	NAtoms int
	Blob   []byte
}

const (
	manifestName   = "manifest.log"
	manifestHeader = "qfstore v2"
	segmentPrefix  = "seg-"
	// segmentBytes is the size at which appends move on to a new segment.
	segmentBytes = 64 << 20
)

// ErrFormat reports a store directory whose manifest is not a qfstore v2
// manifest — a v1 store of per-record object files among them. Such a store
// is refused, not migrated.
var ErrFormat = errors.New("store: unsupported store format")

// ErrClosed reports an operation on a closed Store.
var ErrClosed = errors.New("store: closed")

// syncFile makes a segment's appended bytes durable; tests wrap it to count
// and order the fsyncs.
var syncFile = (*os.File).Sync

// SegmentPath returns the path of segment n of the store rooted at dir — the
// file a manifest line's <seg> field names.
func SegmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d", segmentPrefix, n))
}

// Open opens (creating if needed) a store rooted at dir and replays its
// manifest: every `put` line is checked against its segment's length (full
// CRC validation happens on each Get, before any byte is trusted); lines
// that point past the end are dropped so their fragments requeue. Malformed
// lines are skipped, and a torn final line — the signature of a mid-append
// crash — is cut off so later appends start on a line of their own. A
// manifest of another format version returns ErrFormat.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, idx: make(map[Key]*entry), segs: make(map[int]*segment), filling: &group{}}
	s.committed.L = &s.mu
	if err := s.scanSegments(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, manifestName)
	intact, err := s.replay(path)
	if err != nil {
		return nil, err
	}
	s.replayed = s.logical
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		err = f.Truncate(intact)
		if err == nil {
			_, err = f.Seek(intact, io.SeekStart)
		}
		if err == nil && intact == 0 {
			_, err = fmt.Fprintln(f, manifestHeader)
		}
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.manifest = f
	return s, nil
}

// scanSegments records every segment file's length; appends continue the
// highest-numbered one.
func (s *Store) scanSegments() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		n, err := strconv.Atoi(strings.TrimPrefix(de.Name(), segmentPrefix))
		if err != nil || n < 0 || filepath.Base(SegmentPath(s.dir, n)) != de.Name() {
			continue
		}
		info, err := de.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		s.segs[n] = &segment{size: info.Size()}
		if n > s.cur {
			s.cur = n
		}
	}
	return nil
}

// replay indexes the manifest at path and returns the length of its intact
// prefix: every byte up to the last complete line.
func (s *Store) replay(path string) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var intact int64
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if intact == 0 && !strings.HasPrefix(manifestHeader, line) {
				return 0, fmt.Errorf("%w: %s", ErrFormat, path)
			}
			if err == io.EOF {
				return intact, nil
			}
			return 0, fmt.Errorf("store: %w", err)
		}
		if intact == 0 && line != manifestHeader+"\n" {
			return 0, fmt.Errorf("%w: %s begins %q", ErrFormat, path, strings.TrimSpace(line))
		}
		if intact > 0 {
			s.replayLine(strings.Fields(line))
		}
		intact += int64(len(line))
	}
}

// replayLine applies one manifest record; malformed records are skipped.
func (s *Store) replayLine(fields []string) {
	if len(fields) < 2 {
		return
	}
	k, err := ParseKey(fields[1])
	if err != nil {
		return
	}
	switch {
	case fields[0] == "put" && len(fields) == 6:
		natoms, err1 := strconv.Atoi(fields[2])
		seg, err2 := strconv.Atoi(fields[3])
		off, err3 := strconv.ParseInt(fields[4], 10, 64)
		n, err4 := strconv.ParseInt(fields[5], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return
		}
		s.logical++
		if sg := s.segs[seg]; sg == nil || natoms < 0 || off < 0 || n <= 0 || off > sg.size-n {
			// The line outran its segment's bytes: drop it (and whatever
			// it superseded) so the fragment requeues.
			delete(s.idx, k)
			return
		}
		s.idx[k] = &entry{natoms: natoms, seg: seg, off: off, n: n, prior: true}
	case fields[0] == "ref" && len(fields) == 2:
		s.logical++
	case fields[0] == "del" && len(fields) == 2:
		delete(s.idx, k)
	}
}

// Close waits for any group commit in flight, then releases the manifest and
// segment handles. Records already committed stay valid; later operations
// return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing || len(s.filling.recs) > 0 {
		s.committed.Wait()
	}
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Close()
	s.manifest = nil
	for _, sg := range s.segs {
		if sg.f != nil {
			if cerr := sg.f.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// SetObs attaches metric instruments: Get/Put latency histograms, the
// group-commit counters (fsyncs, and records they committed) and a counter
// publishing the manifest records replayed at Open. The first scope with a
// registry wins; later calls — every scheduler run sharing the store
// re-attaches its own scope — are no-ops, so a daemon that attaches its
// process-wide registry at startup keeps store metrics on one stable series
// while per-job labeled scopes come and go. Safe to call concurrently; a
// scope without a registry is a no-op.
func (s *Store) SetObs(sc obs.Scope) {
	if sc.R == nil {
		return
	}
	s.obsOnce.Do(func() {
		s.obsGet.Store(sc.R.Histogram(obs.MetricStoreGetSeconds, obs.DurationBuckets))
		s.obsPut.Store(sc.R.Histogram(obs.MetricStorePutSeconds, obs.DurationBuckets))
		s.obsFsyncs.Store(sc.R.Counter(obs.MetricStoreFsyncs))
		s.obsRecords.Store(sc.R.Counter(obs.MetricStoreRecordsCommitted))
		sc.R.Counter(obs.MetricStoreReplayRecs).Add(int64(s.replayed))
	})
}

// appendLine writes manifest text; callers hold s.mu.
func (s *Store) appendLine(text string) error {
	if s.manifest == nil {
		return ErrClosed
	}
	_, err := s.manifest.WriteString(text)
	return err
}

// segFile returns segment n's handle, opening it on first use: read-only for
// a sealed segment, read-write (created if missing) for the current one.
// Callers hold s.mu.
func (s *Store) segFile(n int) (*os.File, error) {
	sg := s.segs[n]
	if sg != nil && sg.f != nil {
		return sg.f, nil
	}
	flag := os.O_RDONLY
	if n == s.cur {
		flag = os.O_RDWR | os.O_CREATE
	}
	f, err := os.OpenFile(SegmentPath(s.dir, n), flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if sg == nil {
		sg = &segment{}
		s.segs[n] = sg
	}
	sg.f = f
	return f, nil
}

// stage appends one record's bytes to the current segment, rotating first
// if it would outgrow segmentBytes, and adds it to the filling group.
// Callers hold s.mu.
func (s *Store) stage(k Key, natoms int, blob []byte) error {
	n := int64(len(blob))
	if sg := s.segs[s.cur]; sg != nil && sg.size > 0 && sg.size+n > segmentBytes {
		s.cur++
	}
	f, err := s.segFile(s.cur)
	if err != nil {
		return err
	}
	sg := s.segs[s.cur]
	if _, err := f.WriteAt(blob, sg.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	g := s.filling
	g.recs = append(g.recs, staged{key: k, natoms: natoms, seg: s.cur, off: sg.size, n: n})
	if len(g.files) == 0 || g.files[len(g.files)-1] != f {
		g.files = append(g.files, f)
	}
	sg.size += n
	return nil
}

// commit is the one write path — Put, PutRaw and PutRaws all end here. It
// appends every record to the current segment and returns once the group
// commit that covers them has published them. A key this process already
// put is not rewritten: it gets a `ref` line, the logical serve. The first
// error is returned; records that failed are not published.
func (s *Store) commit(recs []RawRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return ErrClosed
	}
	var firstErr error
	g, appended := s.filling, 0
	for _, r := range recs {
		if e := s.idx[r.Key]; e != nil && !e.prior {
			s.logical++
			if err := s.appendLine("ref " + r.Key.String() + "\n"); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := s.stage(r.Key, r.NAtoms, r.Blob); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		appended++
	}
	if appended > 0 {
		for !g.done {
			if s.syncing {
				s.committed.Wait()
			} else {
				s.lead()
			}
		}
		if g.err != nil && firstErr == nil {
			firstErr = g.err
		}
	}
	return firstErr
}

// lead runs one group commit over the filling group: fsync its segments with
// the lock released — later puts keep appending into the next group — then
// publish its manifest lines and index entries and wake the followers.
// Callers hold s.mu, with no commit in flight.
func (s *Store) lead() {
	g := s.filling
	s.filling = &group{}
	s.syncing = true
	s.mu.Unlock()
	var err error
	for _, f := range g.files {
		if err = syncFile(f); err != nil {
			err = fmt.Errorf("store: %w", err)
			break
		}
		s.obsFsyncs.Load().Inc()
	}
	s.mu.Lock()
	if err == nil {
		var b strings.Builder
		for _, r := range g.recs {
			fmt.Fprintf(&b, "put %s %d %d %d %d\n", r.key.String(), r.natoms, r.seg, r.off, r.n)
		}
		if err = s.appendLine(b.String()); err == nil {
			for _, r := range g.recs {
				s.idx[r.key] = &entry{natoms: r.natoms, seg: r.seg, off: r.off, n: r.n}
			}
			s.logical += len(g.recs)
			s.obsRecords.Load().Add(int64(len(g.recs)))
		}
	}
	g.done, g.err = true, err
	s.syncing = false
	s.committed.Broadcast()
}

// Put checkpoints a fragment result under its key: the data is rotated into
// the canonical frame, encoded and committed (see commit). The returned data
// is the result as a subsequent Get would serve it — the canonical
// roundtrip of the input — and callers should use it in place of the input
// so computed and cache-served fragments are bit-identical.
func (s *Store) Put(k Key, fr Frame, fd *hessian.FragmentData) (*hessian.FragmentData, error) {
	if h := s.obsPut.Load(); h != nil {
		defer func(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }(time.Now())
	}
	canon, err := fr.ToCanonical(fd)
	if err != nil {
		return nil, err
	}
	blob, err := Encode(canon)
	if err != nil {
		return nil, err
	}
	if err := s.commit([]RawRecord{{Key: k, NAtoms: fr.NAtoms, Blob: blob}}); err != nil {
		return nil, err
	}
	return fr.FromCanonical(canon)
}

// PutRaw lands a canonical record blob received from a peer under its key:
// the blob is validated (magic, CRC, structure) before anything is written,
// then committed like Put. natoms feeds the manifest's size histogram.
// Unlike Put no frame rotation happens — the blob is already in the
// canonical frame.
func (s *Store) PutRaw(k Key, natoms int, blob []byte) error {
	return s.PutRaws([]RawRecord{{Key: k, NAtoms: natoms, Blob: blob}})
}

// PutRaws lands a batch of peer records under one group commit — one fsync
// for the whole batch. Every record is validated as in PutRaw; the valid
// ones are committed and the first error is returned.
func (s *Store) PutRaws(recs []RawRecord) error {
	var firstErr error
	valid := make([]RawRecord, 0, len(recs))
	for _, r := range recs {
		if err := validateRaw(r); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		valid = append(valid, r)
	}
	if err := s.commit(valid); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func validateRaw(r RawRecord) error {
	fd, err := Decode(r.Blob)
	if err != nil {
		return err
	}
	if fd.NumAtoms() != r.NAtoms {
		return fmt.Errorf("%w: blob holds %d atoms, manifest claim is %d", ErrCorrupt, fd.NumAtoms(), r.NAtoms)
	}
	return nil
}

// load reads k's record with one pread and validates it. A clean miss
// returns (nil, nil, nil, nil); a record that fails validation is evicted
// by a tombstone and reported as ErrCorrupt.
func (s *Store) load(k Key) (*hessian.FragmentData, []byte, *entry, error) {
	s.mu.Lock()
	if s.manifest == nil {
		s.mu.Unlock()
		return nil, nil, nil, ErrClosed
	}
	e := s.idx[k]
	if e == nil {
		s.mu.Unlock()
		return nil, nil, nil, nil
	}
	f, err := s.segFile(e.seg)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, nil, err
	}
	blob := make([]byte, e.n)
	if n, err := f.ReadAt(blob, e.off); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil, nil, nil, ErrClosed
		}
		if err != io.EOF {
			return nil, nil, nil, fmt.Errorf("store: %w", err)
		}
		blob = blob[:n] // the segment ends inside the record: Decode rejects it
	}
	canon, err := Decode(blob)
	if err != nil {
		s.evict(k, e)
		return nil, nil, nil, err
	}
	return canon, blob, e, nil
}

// Get serves a fragment result from the store, rotated into the caller's
// frame. A clean miss returns (nil, false, nil). A record that fails CRC or
// structural validation is evicted and reported as ErrCorrupt so the caller
// requeues the fragment — corruption is never served. The prior flag
// reports that the record was produced by an earlier run (and not re-put by
// this one): resume accounting.
func (s *Store) Get(k Key, fr Frame) (*hessian.FragmentData, bool, error) {
	if h := s.obsGet.Load(); h != nil {
		defer func(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }(time.Now())
	}
	canon, _, e, err := s.load(k)
	if canon == nil {
		return nil, false, err
	}
	fd, err := fr.FromCanonical(canon)
	if err != nil {
		return nil, false, err
	}
	// Record the serve as a ref so the manifest tallies every logical
	// result the store backed — the numerator of the dedup ratio.
	// Best-effort bookkeeping: a failed append changes no data.
	s.Ref(k, 1)
	return fd, e.prior, nil
}

// Ref records n further results backed by k's record — class members the
// scheduler filled in memory from one Get or Put — so the manifest keeps
// tallying every fragment result the store backed (the numerator of the
// dedup ratio) while the store is touched once per class. Best-effort
// bookkeeping, like Get's own ref line.
func (s *Store) Ref(k Key, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil || n <= 0 {
		return
	}
	s.logical += n
	s.appendLine(strings.Repeat("ref "+k.String()+"\n", n))
}

// GetRaw serves the validated canonical record bytes for k — the peer-fetch
// path of the cluster's tiered cache (DESIGN.md §9): record blobs travel
// CRC-guarded end to end between worker-local stores and the coordinator
// store without a decode/re-encode at each hop. The blob is fully validated
// (magic, CRC, structure) before it is returned; a corrupt record is evicted
// and reported as ErrCorrupt exactly like Get. A clean miss returns
// (nil, false, nil). No ref line is appended: a raw read is peer transport,
// not a logical fragment completion.
func (s *Store) GetRaw(k Key) ([]byte, bool, error) {
	_, blob, _, err := s.load(k)
	return blob, blob != nil, err
}

// evict tombstones the entry a read found corrupt, unless a newer put has
// replaced it since.
func (s *Store) evict(k Key, seen *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx[k] == seen {
		delete(s.idx, k)
		s.appendLine("del " + k.String() + "\n")
	}
}

// Has reports whether a record for k is currently indexed — a cheap
// existence probe (no I/O, no CRC) that a serving frontend uses for
// cross-job dedup accounting before dispatch. The authoritative check stays
// with Get, which validates the record's bytes.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx[k] != nil
}

// Stats summarizes store contents for tooling (qfstats -store).
type Stats struct {
	// Objects and Bytes count the live content-addressed records.
	Objects int
	Bytes   int64
	// Segments counts segment files; DeadBytes is their length not covered
	// by a live record — tombstoned, superseded or orphaned records, what a
	// compaction would reclaim.
	Segments  int
	DeadBytes int64
	// Logical counts the results recorded across all runs (manifest put +
	// ref lines): every fragment completion that was backed by the store,
	// whether it read the record itself or was filled from its class's read.
	Logical int
	// DedupRatio is Logical/Objects — how many fragment results each
	// stored record serves on average.
	DedupRatio float64
	// SizeHistogram counts records by fragment atom count (caps included).
	SizeHistogram map[int]int
}

// Stats computes the current store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Logical: s.logical, Segments: len(s.segs), SizeHistogram: make(map[int]int)}
	for _, e := range s.idx {
		st.Objects++
		st.Bytes += e.n
		st.SizeHistogram[e.natoms]++
	}
	for _, sg := range s.segs {
		st.DeadBytes += sg.size
	}
	st.DeadBytes -= st.Bytes
	if st.Objects > 0 {
		st.DedupRatio = float64(st.Logical) / float64(st.Objects)
	}
	return st
}

// SortedSizes returns the histogram's atom counts in ascending order, for
// deterministic printing.
func (st Stats) SortedSizes() []int {
	sizes := make([]int, 0, len(st.SizeHistogram))
	for n := range st.SizeHistogram {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return sizes
}
