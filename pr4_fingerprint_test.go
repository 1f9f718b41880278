package dpkron_test

import (
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/degseq"
	"dpkron/internal/dp"
	"dpkron/internal/randx"
	"dpkron/internal/smoothsens"
)

// PR 4 routes every noise draw through accounted mechanism handles
// (internal/accountant). Charging is pure bookkeeping over the seeded
// randx streams, so the accounted paths must release the exact bits
// the PR 2/PR 3 paths released. These tests re-pin the PR 2 hashes
// from pr3_fingerprint_test.go against the accounted entry points —
// with a live accountant, and with the tightest limit that still
// admits the run, so the enforcement branch itself is exercised.

func TestFingerprintAccountedEstimate(t *testing.T) {
	g := fpGraphK10(t)
	const (
		wantInit  = uint64(0x1c23d17293445957)
		wantFeats = uint64(0x297d918e6156a3fb)
	)
	// The accountant's limit is exactly the requested budget: every
	// charge must still be admitted, and the released bits must match
	// the unaccounted PR 2/PR 3 pins.
	acc := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.5, Delta: 0.01})
	res, err := core.EstimateCtx(liveRun(t, 4), g, core.Options{
		Eps: 0.5, Delta: 0.01, Rng: randx.New(9), Accountant: acc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fpHashFloats(res.Init.A, res.Init.B, res.Init.C); got != wantInit {
		t.Errorf("accounted init fingerprint = %#x, want %#x (PR 2)", got, wantInit)
	}
	if got := fpHashFloats(res.Features.E, res.Features.H, res.Features.T, res.Features.Delta); got != wantFeats {
		t.Errorf("accounted features fingerprint = %#x, want %#x (PR 2)", got, wantFeats)
	}
	// The receipt matches the planned schedule charge for charge.
	rec := acc.Receipt()
	if len(rec.Charges) != 2 {
		t.Fatalf("receipt charges = %d, want 2", len(rec.Charges))
	}
	planned := core.PlannedReceipt(0.5, 0.01)
	for i := range rec.Charges {
		if rec.Charges[i] != planned.Charges[i] {
			t.Errorf("charge %d: realized %+v != planned %+v", i, rec.Charges[i], planned.Charges[i])
		}
	}
	if res.Receipt.Total != rec.Total {
		t.Errorf("result receipt total %v != accountant total %v", res.Receipt.Total, rec.Total)
	}
}

func TestFingerprintAccountedMechanisms(t *testing.T) {
	g := fpGraphK10(t)

	// degseq: the release through a live accountant equals the release
	// through a nil one (which records nothing) bit for bit.
	acc := accountant.New(nil)
	got, err := degseq.PrivateAcc(acc, g, 0.25, randx.New(19))
	if err != nil {
		t.Fatal(err)
	}
	want, err := degseq.PrivateAcc(nil, g, 0.25, randx.New(19))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrivateAcc(acc)[%d] = %v, PrivateAcc(nil) = %v", i, got[i], want[i])
		}
	}
	if ch := acc.Charges(); len(ch) != 1 || ch[0].Query != degseq.Query || ch[0].Sensitivity != degseq.GlobalSensitivity {
		t.Fatalf("degseq charge = %+v", acc.Charges())
	}

	// smoothsens: the accounted triangle release re-pins the PR 2 hash.
	const wantSS = uint64(0x982b28ed09bc9fe4)
	tri, err := smoothsens.PrivateTrianglesAccCtx(liveRun(t, 4), accountant.New(nil), g, 0.3, 0.01, randx.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if got := fpHashFloats(tri.Noisy, float64(tri.Exact), tri.SmoothSen, tri.Scale); got != wantSS {
		t.Errorf("PrivateTrianglesAccCtx fingerprint = %#x, want %#x (PR 2)", got, wantSS)
	}
}

// TestAccountedEstimateRefusalDrawsNoNoise: a refused charge aborts
// before its mechanism consumes randomness, so a rerun with a fresh
// accountant releases exactly what an unconstrained run releases — the
// refusal cannot skew later draws.
func TestAccountedEstimateRefusalDrawsNoNoise(t *testing.T) {
	g := fpGraphK10(t)
	rng := randx.New(9)
	// Limit below ε/2: the very first charge is refused.
	acc := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.1, Delta: 0.01})
	if _, err := core.EstimateCtx(liveRun(t, 4), g, core.Options{
		Eps: 0.5, Delta: 0.01, Rng: rng, Accountant: acc,
	}); err == nil {
		t.Fatal("over-limit estimate succeeded")
	}
	if acc.Len() != 0 {
		t.Fatalf("refused run recorded %d charges", acc.Len())
	}
	// The same rng instance, untouched by the refusal, now produces the
	// pinned release.
	res, err := core.EstimateCtx(liveRun(t, 4), g, core.Options{Eps: 0.5, Delta: 0.01, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	const wantInit = uint64(0x1c23d17293445957)
	if got := fpHashFloats(res.Init.A, res.Init.B, res.Init.C); got != wantInit {
		t.Errorf("post-refusal fingerprint = %#x, want %#x (rng was perturbed)", got, wantInit)
	}
}
