package fd

import (
	"math/rand"
	"strconv"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// TestProverMatchesProveObs pins the compiled prover to the reference
// implementation over random FD sets: same verdict, byte-identical
// proof, and identical fd.* counter increments (pass and derivation
// counts), goal by goal.
func TestProverMatchesProveObs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	attrs := []schema.Attribute{"A", "B", "C", "D", "E", "F", "G", "H"}
	side := func() []schema.Attribute {
		n := 1 + r.Intn(3)
		perm := r.Perm(len(attrs))
		out := make([]schema.Attribute, n)
		for i := 0; i < n; i++ {
			out[i] = attrs[perm[i]]
		}
		return out
	}
	counts := func(reg *obs.Registry) [3]int64 {
		return [3]int64{
			reg.Counter("fd.prove_calls").Value(),
			reg.Counter("fd.closure_passes").Value(),
			reg.Counter("fd.attrs_derived").Value(),
		}
	}
	for trial := 0; trial < 300; trial++ {
		var sigma []deps.FD
		for i, n := 0, r.Intn(7); i < n; i++ {
			rel := "R"
			if r.Intn(4) == 0 {
				rel = "S" // prover must ignore other relations like ProveObs does
			}
			sigma = append(sigma, deps.FD{Rel: rel, X: side(), Y: side()})
		}
		p := NewProver("R", sigma)
		for g := 0; g < 4; g++ {
			goal := deps.FD{Rel: "R", X: side(), Y: side()}
			regRef, regCmp := obs.New(), obs.New()
			refProof, refOK := ProveObs(sigma, goal, regRef)
			gotProof, gotOK := p.Prove(goal, regCmp)
			if refOK != gotOK {
				t.Fatalf("trial %d: sigma=%v goal=%v: ProveObs ok=%v, Prover ok=%v",
					trial, sigma, goal, refOK, gotOK)
			}
			if refOK && refProof.String() != gotProof.String() {
				t.Fatalf("trial %d: sigma=%v goal=%v:\nProveObs:\n%s\nProver:\n%s",
					trial, sigma, goal, refProof.String(), gotProof.String())
			}
			if gotOK {
				if err := gotProof.Verify(sigma); err != nil {
					t.Fatalf("trial %d: prover proof fails Verify: %v", trial, err)
				}
			}
			if counts(regRef) != counts(regCmp) {
				t.Fatalf("trial %d: sigma=%v goal=%v: counter drift: ProveObs %v, Prover %v",
					trial, sigma, goal, counts(regRef), counts(regCmp))
			}
		}
	}
}

// TestProverNilAndEmpty pins the degenerate provers: a nil prover and a
// prover over zero FDs both answer exactly like ProveObs with no FDs —
// only reflexivity proves anything.
func TestProverNilAndEmpty(t *testing.T) {
	goalYes := deps.FD{Rel: "R", X: []schema.Attribute{"A", "B"}, Y: []schema.Attribute{"A"}}
	goalNo := deps.FD{Rel: "R", X: []schema.Attribute{"A"}, Y: []schema.Attribute{"B"}}
	for name, p := range map[string]*Prover{"nil": nil, "empty": NewProver("R", nil)} {
		if proof, ok := p.Prove(goalYes, nil); !ok || len(proof.Steps) != 0 {
			t.Errorf("%s prover: reflexive goal: ok=%v steps=%d, want ok with no steps", name, ok, len(proof.Steps))
		}
		if _, ok := p.Prove(goalNo, nil); ok {
			t.Errorf("%s prover: underivable goal answered yes", name)
		}
	}
}

// chainProof returns a prover over the FD chain A0 -> A1 -> ... -> A(n-1)
// and the goal A0 -> A(n-1), whose proof takes n-1 steps.
func chainProof(n int) (*Prover, deps.FD) {
	var sigma []deps.FD
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, deps.NewFD("R",
			deps.Attrs("A"+strconv.Itoa(i)), deps.Attrs("A"+strconv.Itoa(i+1))))
	}
	return NewProver("R", sigma), deps.NewFD("R", deps.Attrs("A0"), deps.Attrs("A"+strconv.Itoa(n-1)))
}

// TestProverProofAllocs pins the per-goal cost of a compiled proof: Prove
// plus String of a 14-step chain proof stays within 3 allocations (the
// steps, the goal's text and the proof's), because each FD's step line
// is rendered once by NewProver, the closure's scratch stays on the
// stack, and the proof text is written into one sized builder.
func TestProverProofAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	p, goal := chainProof(15)
	proof, ok := p.Prove(goal, nil)
	if !ok || len(proof.Steps) != 14 {
		t.Fatalf("chain proof: ok=%v steps=%d, want 14 steps", ok, len(proof.Steps))
	}
	allocs := testing.AllocsPerRun(200, func() {
		proof, _ := p.Prove(goal, nil)
		_ = proof.String()
	})
	if allocs > 3 {
		t.Errorf("Prove+String of a 14-step proof: %.0f allocs, want <= 3", allocs)
	}
}

// BenchmarkProverProof times Prove plus String of the 14-step chain
// proof.
func BenchmarkProverProof(b *testing.B) {
	p, goal := chainProof(15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proof, _ := p.Prove(goal, nil)
		_ = proof.String()
	}
}
