package accel

import (
	"math/rand"
	"testing"

	"qframan/internal/linalg"
)

// smallCalls fabricates n independent small GEMMs of similar shapes. With
// rows ~20·dim and columns ~dim they match the profile of the DFPT grid
// batches (a few hundred points × a few dozen basis functions).
func smallCalls(rng *rand.Rand, n, dim int) []linalg.GemmCall {
	calls := make([]linalg.GemmCall, n)
	for i := range calls {
		rows := 20*dim + rng.Intn(32)
		k := dim + rng.Intn(5)
		a := linalg.NewMatrix(rows, k)
		b := linalg.NewMatrix(k, k)
		for j := range a.Data {
			a.Data[j] = rng.NormFloat64()
		}
		for j := range b.Data {
			b.Data[j] = rng.NormFloat64()
		}
		calls[i] = linalg.GemmCall{Alpha: 1, A: a, B: b, C: linalg.NewMatrix(rows, k)}
	}
	return calls
}

func TestBatchingReducesModeledTime(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	calls := smallCalls(rng, 256, 16)

	// Baseline: no offload at all (pure host cost).
	hostOnly := Cost(ORISEDevice(), Options{Stride: 32, MinBatch: 64, Offload: false}, calls, nil)

	// Strawman: offload each tiny GEMM individually.
	naive := Cost(ORISEDevice(), Options{Stride: 32, MinBatch: 64, Offload: true, BatchingDisabled: true}, calls, nil)

	// Elastic batching.
	batched := Cost(ORISEDevice(), DefaultOptions(), calls, nil)

	if batched.Batches == 0 {
		t.Fatal("elastic model never batched")
	}
	if batched.ModeledTime() >= naive.ModeledTime() {
		t.Fatalf("batched %v not faster than per-call offload %v",
			batched.ModeledTime(), naive.ModeledTime())
	}
	if batched.ModeledTime() >= hostOnly.ModeledTime() {
		t.Fatalf("batched %v not faster than host-only %v",
			batched.ModeledTime(), hostOnly.ModeledTime())
	}
}

func TestSmallGroupsStayOnHost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Fewer calls than MinBatch: everything must stay on the host.
	calls := smallCalls(rng, 10, 8)
	st := Cost(ORISEDevice(), DefaultOptions(), calls, nil)
	if st.OffloadedGEMMs != 0 {
		t.Fatalf("offloaded %d GEMMs from an unprofitable group", st.OffloadedGEMMs)
	}
	if st.HostGEMMs != 10 {
		t.Fatalf("host GEMMs = %d, want 10", st.HostGEMMs)
	}
}

func TestPadding(t *testing.T) {
	stride := DefaultOptions().Stride
	if pad(1, stride) != 32 || pad(32, stride) != 32 || pad(33, stride) != 64 {
		t.Fatalf("pad: %d %d %d", pad(1, stride), pad(32, stride), pad(33, stride))
	}
	if pad(17, 1) != 17 {
		t.Fatal("stride 1 must not pad")
	}
}

func TestGroupingBySimilarStrength(t *testing.T) {
	// Calls within the same padded shape bucket form one batch; a much
	// larger call lands in its own group.
	rng := rand.New(rand.NewSource(4))
	small := smallCalls(rng, 128, 10) // k pads to 32
	big := smallCalls(rng, 70, 100)   // k pads to 128
	opt := DefaultOptions()
	opt.MinBatch = 16
	st := Cost(SunwayDevice(), opt, append(small, big...), nil)
	if st.Batches < 2 {
		t.Fatalf("expected at least 2 batches, got %d", st.Batches)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	calls := smallCalls(rng, 100, 12)
	st := Cost(ORISEDevice(), DefaultOptions(), calls, nil)
	if st.GEMMs != 100 {
		t.Fatalf("GEMMs = %d", st.GEMMs)
	}
	if st.OffloadedGEMMs+st.HostGEMMs != 100 {
		t.Fatalf("offloaded %d + host %d != 100", st.OffloadedGEMMs, st.HostGEMMs)
	}
	if st.ModeledTime() <= 0 {
		t.Fatal("no modeled time accumulated")
	}
}
