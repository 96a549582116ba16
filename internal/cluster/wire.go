package cluster

import (
	"fmt"
	"math"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/store"
)

// Peer roles carried in HELLO.
const (
	RoleWorker uint8 = 1
	RoleClient uint8 = 2
)

// Result/serve cache tiers: where a fragment's canonical blob came from.
// The lookup order is the tiered cache of DESIGN.md §9 — coordinator
// store, worker-local store, coordinator fetch, recompute.
const (
	TierCompute uint8 = 0 // worker ran the engine (recompute)
	TierLocal   uint8 = 1 // worker-local disk store
	TierCoord   uint8 = 2 // coordinator's store, served at lease time
	TierFetch   uint8 = 3 // worker fetched the blob from the coordinator
)

// Hello opens every connection: the peer's role, application protocol
// version, lease capacity (workers), and display name.
type Hello struct {
	Role  uint8
	Proto uint32
	Slots uint32
	Name  string
}

// Welcome accepts a handshake and assigns the peer a session ID.
type Welcome struct {
	Proto   uint32
	Session uint64
}

// Reject codes: why a handshake was declined.
const (
	RejectOther   uint8 = 0
	RejectVersion uint8 = 1 // application protocol version skew
)

// Reject declines a handshake with a typed code and a reason. Peers map
// RejectVersion to ErrVersionSkew.
type Reject struct {
	Code   uint8
	Reason string
}

// Job announces a client run: its ID, how many FRAG frames follow, and the
// physics options every lease of this job carries. On the wire Opt is the
// length-prefixed hessian.JobOptions.AppendPhysics serialization — the bytes
// the store's content key hashes — so only physics travels: the decoded
// options' execution-only fields (Obs, warm starts) are zero, the executing
// worker's own.
type Job struct {
	Job    uint64
	NFrags uint32
	Opt    hessian.JobOptions
}

// Frag submits one unique fragment of a job: its index in the client's
// decomposition, its content key, and its geometry.
type Frag struct {
	Job  uint64
	Frag uint32
	Key  store.Key
	Els  []constants.Element
	Pos  []geom.Vec3
}

// Lease grants a task to a worker under an ownership epoch. The epoch
// increments every time the coordinator reassigns the task (lease expiry,
// worker death); stale results are identified by their (task, epoch) pair.
type Lease struct {
	Task  uint64
	Epoch uint32
	Key   store.Key
	Opt   hessian.JobOptions // physics only, as in Job
	Els   []constants.Element
	Pos   []geom.Vec3
}

// Result returns a completed task: the tier that produced the canonical
// blob, and the blob itself. An empty blob means "the coordinator already
// has this key" (TierFetch: the worker pulled it *from* the coordinator,
// so echoing the bytes back would be pure waste).
type Result struct {
	Task  uint64
	Epoch uint32
	Tier  uint8
	Blob  []byte
}

// Serve delivers one fragment result to a client: the producing tier and
// the canonical blob.
type Serve struct {
	Job  uint64
	Frag uint32
	Tier uint8
	Blob []byte
}

// Fetch asks the coordinator for a canonical blob by content key
// (worker-side tier-3 lookup).
type Fetch struct {
	Key store.Key
}

// FetchOK answers a FETCH with the blob.
type FetchOK struct {
	Key  store.Key
	Blob []byte
}

// FetchMiss answers a FETCH the coordinator cannot serve.
type FetchMiss struct {
	Key store.Key
}

// Steal revokes a lease (straggler re-dispatch): the worker should abandon
// the task if it has not finished. Best-effort — the epoch check on RESULT
// is what guarantees correctness.
type Steal struct {
	Task  uint64
	Epoch uint32
}

// TaskFail reports a failed attempt. Transient failures are retried under
// a bounded budget; deterministic ones fail the job.
type TaskFail struct {
	Task      uint64
	Epoch     uint32
	Transient bool
	Msg       string
}

// JobDone closes a job toward the client, with the coordinator's
// per-tier accounting for it. Err is empty on success.
type JobDone struct {
	Job       uint64
	Err       string
	Computed  uint32
	LocalHits uint32
	CoordHits uint32
	FetchHits uint32
	Reassigns uint32
}

// ---- payload encoding ----

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b, blob []byte) []byte {
	b = appendU32(b, uint32(len(blob)))
	return append(b, blob...)
}

func appendVec(b []byte, v geom.Vec3) []byte {
	b = appendF64(b, v.X)
	b = appendF64(b, v.Y)
	return appendF64(b, v.Z)
}

func appendGeom(b []byte, els []constants.Element, pos []geom.Vec3) []byte {
	b = appendU32(b, uint32(len(els)))
	for _, e := range els {
		b = append(b, byte(e))
	}
	for _, p := range pos {
		b = appendVec(b, p)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (m Hello) encode() []byte {
	b := []byte{m.Role}
	b = appendU32(b, m.Proto)
	b = appendU32(b, m.Slots)
	return appendStr(b, m.Name)
}

func (m Welcome) encode() []byte {
	b := appendU32(nil, m.Proto)
	return appendU64(b, m.Session)
}

func (m Reject) encode() []byte { return appendStr([]byte{m.Code}, m.Reason) }

func (m Job) encode() []byte {
	b := appendU64(nil, m.Job)
	b = appendU32(b, m.NFrags)
	return appendBytes(b, m.Opt.AppendPhysics(nil))
}

func (m Frag) encode() []byte {
	b := appendU64(nil, m.Job)
	b = appendU32(b, m.Frag)
	b = append(b, m.Key[:]...)
	return appendGeom(b, m.Els, m.Pos)
}

func (m Lease) encode() []byte {
	b := appendU64(nil, m.Task)
	b = appendU32(b, m.Epoch)
	b = append(b, m.Key[:]...)
	b = appendBytes(b, m.Opt.AppendPhysics(nil))
	return appendGeom(b, m.Els, m.Pos)
}

func (m Result) encode() []byte {
	b := appendU64(nil, m.Task)
	b = appendU32(b, m.Epoch)
	b = append(b, m.Tier)
	return appendBytes(b, m.Blob)
}

func (m Serve) encode() []byte {
	b := appendU64(nil, m.Job)
	b = appendU32(b, m.Frag)
	b = append(b, m.Tier)
	return appendBytes(b, m.Blob)
}

func (m Fetch) encode() []byte { return append([]byte(nil), m.Key[:]...) }

func (m FetchOK) encode() []byte {
	b := append([]byte(nil), m.Key[:]...)
	return appendBytes(b, m.Blob)
}

func (m FetchMiss) encode() []byte { return append([]byte(nil), m.Key[:]...) }

func (m Steal) encode() []byte {
	b := appendU64(nil, m.Task)
	return appendU32(b, m.Epoch)
}

func (m TaskFail) encode() []byte {
	b := appendU64(nil, m.Task)
	b = appendU32(b, m.Epoch)
	b = appendBool(b, m.Transient)
	return appendStr(b, m.Msg)
}

func (m JobDone) encode() []byte {
	b := appendU64(nil, m.Job)
	b = appendStr(b, m.Err)
	b = appendU32(b, m.Computed)
	b = appendU32(b, m.LocalHits)
	b = appendU32(b, m.CoordHits)
	b = appendU32(b, m.FetchHits)
	return appendU32(b, m.Reassigns)
}

// ---- payload decoding ----

// reader is a bounds-checked cursor: any out-of-range read sets bad and
// yields zeros, checked once at the end (the store codec's pattern).
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) fits(n int) bool { return n >= 0 && !r.bad && len(r.b)-r.off >= n }

func (r *reader) take(n int) []byte {
	if !r.fits(n) {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return readU16(s)
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return readU32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return readU64(s)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u16())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	s := r.take(n)
	if s == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, s)
	return out
}

func (r *reader) boolean() bool { return r.u8() != 0 }

func (r *reader) key() store.Key {
	var k store.Key
	s := r.take(len(k))
	copy(k[:], s)
	return k
}

func (r *reader) vec() geom.Vec3 {
	return geom.Vec3{X: r.f64(), Y: r.f64(), Z: r.f64()}
}

func (r *reader) geometry() ([]constants.Element, []geom.Vec3) {
	n := int(r.u32())
	// A geometry needs 1 + 24 bytes per atom; reject declared counts the
	// payload cannot hold before allocating.
	if !r.fits(n * 25) {
		r.bad = true
		return nil, nil
	}
	els := make([]constants.Element, n)
	for i := range els {
		els[i] = constants.Element(r.u8())
	}
	pos := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = r.vec()
	}
	return els, pos
}

// physics reads a length-prefixed hessian.JobOptions.AppendPhysics block.
// Options that do not parse mark the payload bad.
func (r *reader) physics() hessian.JobOptions {
	opt, err := hessian.ParsePhysics(r.take(int(r.u32())))
	if err != nil {
		r.bad = true
	}
	return opt
}

// done validates that the payload was consumed exactly.
func (r *reader) done(what string) error {
	if r.bad {
		return fmt.Errorf("%w: truncated or malformed %s payload", ErrProtocol, what)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes in %s payload", ErrProtocol, len(r.b)-r.off, what)
	}
	return nil
}

func decodeHello(b []byte) (Hello, error) {
	r := reader{b: b}
	m := Hello{Role: r.u8(), Proto: r.u32(), Slots: r.u32(), Name: r.str()}
	return m, r.done("HELLO")
}

func decodeWelcome(b []byte) (Welcome, error) {
	r := reader{b: b}
	m := Welcome{Proto: r.u32(), Session: r.u64()}
	return m, r.done("WELCOME")
}

func decodeReject(b []byte) (Reject, error) {
	r := reader{b: b}
	m := Reject{Code: r.u8(), Reason: r.str()}
	return m, r.done("REJECT")
}

func decodeJob(b []byte) (Job, error) {
	r := reader{b: b}
	m := Job{Job: r.u64(), NFrags: r.u32(), Opt: r.physics()}
	return m, r.done("JOB")
}

func decodeFrag(b []byte) (Frag, error) {
	r := reader{b: b}
	m := Frag{Job: r.u64(), Frag: r.u32(), Key: r.key()}
	m.Els, m.Pos = r.geometry()
	return m, r.done("FRAG")
}

func decodeLease(b []byte) (Lease, error) {
	r := reader{b: b}
	m := Lease{Task: r.u64(), Epoch: r.u32(), Key: r.key(), Opt: r.physics()}
	m.Els, m.Pos = r.geometry()
	return m, r.done("LEASE")
}

func decodeResult(b []byte) (Result, error) {
	r := reader{b: b}
	m := Result{Task: r.u64(), Epoch: r.u32(), Tier: r.u8(), Blob: r.bytes()}
	return m, r.done("RESULT")
}

func decodeServe(b []byte) (Serve, error) {
	r := reader{b: b}
	m := Serve{Job: r.u64(), Frag: r.u32(), Tier: r.u8(), Blob: r.bytes()}
	return m, r.done("SERVE")
}

func decodeFetch(b []byte) (Fetch, error) {
	r := reader{b: b}
	m := Fetch{Key: r.key()}
	return m, r.done("FETCH")
}

func decodeFetchOK(b []byte) (FetchOK, error) {
	r := reader{b: b}
	m := FetchOK{Key: r.key(), Blob: r.bytes()}
	return m, r.done("FETCH_OK")
}

func decodeFetchMiss(b []byte) (FetchMiss, error) {
	r := reader{b: b}
	m := FetchMiss{Key: r.key()}
	return m, r.done("FETCH_MISS")
}

func decodeSteal(b []byte) (Steal, error) {
	r := reader{b: b}
	m := Steal{Task: r.u64(), Epoch: r.u32()}
	return m, r.done("STEAL")
}

func decodeTaskFail(b []byte) (TaskFail, error) {
	r := reader{b: b}
	m := TaskFail{Task: r.u64(), Epoch: r.u32(), Transient: r.boolean(), Msg: r.str()}
	return m, r.done("TASK_FAIL")
}

func decodeJobDone(b []byte) (JobDone, error) {
	r := reader{b: b}
	m := JobDone{Job: r.u64(), Err: r.str(), Computed: r.u32(),
		LocalHits: r.u32(), CoordHits: r.u32(), FetchHits: r.u32(), Reassigns: r.u32()}
	return m, r.done("JOB_DONE")
}
