package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/sched"
	"qframan/internal/store"
)

func testGeometry() ([]constants.Element, []geom.Vec3) {
	els := []constants.Element{constants.O, constants.H, constants.H}
	pos := []geom.Vec3{
		{X: 0.1, Y: -0.2, Z: 0.3},
		{X: 0.95, Y: 0, Z: 0.11},
		{X: -0.3, Y: 0.9, Z: -1e-9},
	}
	return els, pos
}

func testKey() store.Key {
	var k store.Key
	for i := range k {
		k[i] = byte(i*7 + 3)
	}
	return k
}

func TestWireMessageRoundtrips(t *testing.T) {
	els, pos := testGeometry()
	k := testKey()
	jw := hessian.DefaultJobOptions()

	check := func(name string, got, want any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s roundtrip:\n got %+v\nwant %+v", name, got, want)
		}
	}

	{
		m := Hello{Role: RoleWorker, Proto: ProtoVersion, Slots: 8, Name: "wk-α"}
		got, err := decodeHello(m.encode())
		check("HELLO", got, m, err)
	}
	{
		m := Welcome{Proto: ProtoVersion, Session: 1 << 40}
		got, err := decodeWelcome(m.encode())
		check("WELCOME", got, m, err)
	}
	{
		m := Reject{Code: RejectVersion, Reason: "speak v1"}
		got, err := decodeReject(m.encode())
		check("REJECT", got, m, err)
	}
	{
		m := Job{Job: 3, NFrags: 77, Opt: jw}
		got, err := decodeJob(m.encode())
		check("JOB", got, m, err)
	}
	{
		m := Frag{Job: 3, Frag: 12, Key: k, Els: els, Pos: pos}
		got, err := decodeFrag(m.encode())
		check("FRAG", got, m, err)
	}
	{
		m := Lease{Task: 9, Epoch: 2, Key: k, Opt: jw, Els: els, Pos: pos}
		got, err := decodeLease(m.encode())
		check("LEASE", got, m, err)
	}
	{
		m := Result{Task: 9, Epoch: 2, Tier: TierLocal, Blob: []byte{1, 2, 3}}
		got, err := decodeResult(m.encode())
		check("RESULT", got, m, err)
	}
	{
		m := Serve{Job: 3, Frag: 12, Tier: TierCoord, Blob: []byte{9, 8}}
		got, err := decodeServe(m.encode())
		check("SERVE", got, m, err)
	}
	{
		m := Fetch{Key: k}
		got, err := decodeFetch(m.encode())
		check("FETCH", got, m, err)
	}
	{
		m := FetchOK{Key: k, Blob: []byte{0xFE}}
		got, err := decodeFetchOK(m.encode())
		check("FETCH_OK", got, m, err)
	}
	{
		m := FetchMiss{Key: k}
		got, err := decodeFetchMiss(m.encode())
		check("FETCH_MISS", got, m, err)
	}
	{
		m := Steal{Task: 9, Epoch: 4}
		got, err := decodeSteal(m.encode())
		check("STEAL", got, m, err)
	}
	{
		m := TaskFail{Task: 9, Epoch: 4, Transient: true, Msg: "scf diverged"}
		got, err := decodeTaskFail(m.encode())
		check("TASK_FAIL", got, m, err)
	}
	{
		m := JobDone{Job: 3, Computed: 5, LocalHits: 1, CoordHits: 2, FetchHits: 3, Reassigns: 4}
		got, err := decodeJobDone(m.encode())
		check("JOB_DONE", got, m, err)
	}
}

// TestWireEmptyBlobRoundtrip pins the TierFetch convention: a RESULT with
// no blob survives the wire (empty, not lost).
func TestWireEmptyBlobRoundtrip(t *testing.T) {
	m := Result{Task: 1, Epoch: 1, Tier: TierFetch}
	got, err := decodeResult(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != m.Task || got.Epoch != m.Epoch || got.Tier != m.Tier || len(got.Blob) != 0 {
		t.Fatalf("empty-blob RESULT roundtrip: %+v", got)
	}
}

// TestWireRejectsTruncationAndTrailing feeds every strict prefix and one
// trailing byte of each payload to its decoder: all must fail with
// ErrProtocol, none may panic or over-allocate.
func TestWireRejectsTruncationAndTrailing(t *testing.T) {
	els, pos := testGeometry()
	k := testKey()
	jw := hessian.DefaultJobOptions()

	msgs := map[string]struct {
		payload []byte
		dec     func([]byte) error
	}{
		"HELLO":      {Hello{Role: RoleClient, Proto: 1, Name: "n"}.encode(), func(b []byte) error { _, err := decodeHello(b); return err }},
		"WELCOME":    {Welcome{Proto: 1, Session: 2}.encode(), func(b []byte) error { _, err := decodeWelcome(b); return err }},
		"REJECT":     {Reject{Code: 1, Reason: "r"}.encode(), func(b []byte) error { _, err := decodeReject(b); return err }},
		"JOB":        {Job{Job: 1, NFrags: 2, Opt: jw}.encode(), func(b []byte) error { _, err := decodeJob(b); return err }},
		"FRAG":       {Frag{Job: 1, Frag: 2, Key: k, Els: els, Pos: pos}.encode(), func(b []byte) error { _, err := decodeFrag(b); return err }},
		"LEASE":      {Lease{Task: 1, Epoch: 1, Key: k, Opt: jw, Els: els, Pos: pos}.encode(), func(b []byte) error { _, err := decodeLease(b); return err }},
		"RESULT":     {Result{Task: 1, Epoch: 1, Tier: 0, Blob: []byte{1}}.encode(), func(b []byte) error { _, err := decodeResult(b); return err }},
		"SERVE":      {Serve{Job: 1, Frag: 1, Tier: 2, Blob: []byte{1}}.encode(), func(b []byte) error { _, err := decodeServe(b); return err }},
		"FETCH":      {Fetch{Key: k}.encode(), func(b []byte) error { _, err := decodeFetch(b); return err }},
		"FETCH_OK":   {FetchOK{Key: k, Blob: []byte{1}}.encode(), func(b []byte) error { _, err := decodeFetchOK(b); return err }},
		"FETCH_MISS": {FetchMiss{Key: k}.encode(), func(b []byte) error { _, err := decodeFetchMiss(b); return err }},
		"STEAL":      {Steal{Task: 1, Epoch: 1}.encode(), func(b []byte) error { _, err := decodeSteal(b); return err }},
		"TASK_FAIL":  {TaskFail{Task: 1, Epoch: 1, Msg: "m"}.encode(), func(b []byte) error { _, err := decodeTaskFail(b); return err }},
		"JOB_DONE":   {JobDone{Job: 1}.encode(), func(b []byte) error { _, err := decodeJobDone(b); return err }},
	}
	for name, m := range msgs {
		for cut := 0; cut < len(m.payload); cut++ {
			if err := m.dec(m.payload[:cut]); !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s truncated at %d/%d: got %v, want ErrProtocol", name, cut, len(m.payload), err)
			}
		}
		long := append(append([]byte(nil), m.payload...), 0xCC)
		if err := m.dec(long); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s with trailing byte: got %v, want ErrProtocol", name, err)
		}
	}
}

// TestGeometryCountOverflow pins the pre-allocation guard: a declared atom
// count the payload cannot hold must fail cleanly, including counts whose
// 25-byte sizing would overflow int.
func TestGeometryCountOverflow(t *testing.T) {
	k := testKey()
	for _, n := range []uint32{3, 1000, 1 << 30, math.MaxUint32} {
		b := appendU64(nil, 1) // Job
		b = appendU32(b, 1)    // Frag
		b = append(b, k[:]...) // Key
		b = appendU32(b, n)    // declared atom count, no atoms follow
		if _, err := decodeFrag(b); !errors.Is(err, ErrProtocol) {
			t.Fatalf("n=%d: got %v, want ErrProtocol", n, err)
		}
	}
}

// TestLeaseFingerprintAgreement is the cross-build determinism contract: the
// options a worker decodes from a LEASE fingerprint the leased geometry to the
// key the client computed — whatever execution-only state (a trace scope, a
// warm seed) the client's options carried, none of it travels.
func TestLeaseFingerprintAgreement(t *testing.T) {
	opt := sched.DefaultOptions().Job
	opt.SCF.Tol = 3.25e-7
	opt.SCF.Field = geom.Vec3{X: 0.001}
	opt.DFPT.BatchSide = 4
	opt.SCF.InitDeltaQ = []float64{0.1, -0.05, -0.05}

	els, pos := testGeometry()
	f := &fragment.Fragment{ID: 4, Coeff: 1, Els: els, Pos: pos}
	key, _ := store.Fingerprint(f, opt)

	// Client → coordinator (JOB), coordinator → worker (LEASE).
	job, err := decodeJob(Job{Job: 1, NFrags: 1, Opt: opt}.encode())
	if err != nil {
		t.Fatal(err)
	}
	lease, err := decodeLease(Lease{Task: 1, Epoch: 1, Key: key, Opt: job.Opt, Els: els, Pos: pos}.encode())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := store.Fingerprint(&fragment.Fragment{Coeff: 1, Els: lease.Els, Pos: lease.Pos}, lease.Opt)
	if got != key || got != lease.Key {
		t.Fatalf("worker fingerprints the lease to %s, client keyed it %s", got, key)
	}
	if lease.Opt.SCF.InitDeltaQ != nil {
		t.Fatal("a warm-start seed crossed the wire")
	}
}

// TestWireRejectsInvalidPhysics: a JOB whose options block is well-framed but
// not a valid physics serialization is a protocol error, not a job.
func TestWireRejectsInvalidPhysics(t *testing.T) {
	opt := hessian.DefaultJobOptions()
	opt.DFPT.Coulomb = 7
	if _, err := decodeJob(Job{Job: 1, NFrags: 1, Opt: opt}.encode()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unknown Coulomb mode: got %v, want ErrProtocol", err)
	}
}
