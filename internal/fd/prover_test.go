package fd

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// TestProverMatchesProveObs pins the compiled prover to the reference
// implementation over random FD sets: same verdict, the same proof once
// expanded, byte-identical text rendered from the prover's lines, and
// identical fd.* counter increments (pass and derivation counts), goal
// by goal.
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
			got, gotOK := p.Prove(goal, regCmp)
			if refOK != gotOK || got.IsZero() == gotOK {
				t.Fatalf("trial %d: sigma=%v goal=%v: ProveObs ok=%v, Prover ok=%v (zero derivation %v)",
					trial, sigma, goal, refOK, gotOK, got.IsZero())
			}
			if gotOK {
				gotProof, err := got.Proof(goal, sigma)
				if err != nil {
					t.Fatalf("trial %d: sigma=%v goal=%v: %v", trial, sigma, goal, err)
				}
				if len(refProof.Steps) != len(gotProof.Steps) ||
					len(gotProof.Steps) > 0 && !reflect.DeepEqual(refProof, gotProof) {
					t.Fatalf("trial %d: sigma=%v goal=%v:\nProveObs:\n%s\nProver:\n%s",
						trial, sigma, goal, refProof, gotProof)
				}
				if text := got.Render(goal, goal.String()); text != refProof.String() {
					t.Fatalf("trial %d: sigma=%v goal=%v: Render\n%s\nwant\n%s", trial, sigma, goal, text, refProof)
				}
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
		if proof, ok := p.Prove(goalYes, nil); !ok || proof.IsZero() || proof.Len() != 0 {
			t.Errorf("%s prover: reflexive goal: ok=%v steps=%d, want ok with no steps", name, ok, proof.Len())
		} else if exp, err := proof.Proof(goalYes, nil); err != nil {
			t.Errorf("%s prover: reflexive goal does not expand: %v", name, err)
		} else if got, want := proof.Render(goalYes, goalYes.String()), exp.String(); got != want {
			t.Errorf("%s prover: reflexive goal renders %q, want %q", name, got, want)
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

// TestDerivationAppendJSON pins what a reply copies from a derivation:
// the goal text, the attributes and each step line go through the
// escaper, except a line its prover found plain (printable ASCII
// without a quote or a backslash), which is copied as it is.
func TestDerivationAppendJSON(t *testing.T) {
	sigma := []deps.FD{
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewFD("R", deps.Attrs("B"), deps.Attrs(`C"é`)),
	}
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs(`C"é`))
	d, ok := NewProver("R", sigma).Prove(goal, nil)
	if !ok || d.Len() != 2 {
		t.Fatalf("ok=%v steps=%d, want a 2-step proof", ok, d.Len())
	}
	mark := func(b []byte, s string) []byte { return append(append(append(b, '<'), s...), '>') }
	got := string(d.AppendJSON(nil, goal.String(), goal.X, mark))
	want := `"goal: <R: A -> C"é>\n  start with <A> (reflexivity)\n` +
		`  1. derive <B> via R: A -> B (augmentation + transitivity)\n` +
		`  2. derive <C"é>< via R: B -> C"é (augmentation + transitivity)>\n  qed"`
	if got != want {
		t.Errorf("AppendJSON =\n%s\nwant\n%s", got, want)
	}
}

// TestDerivationProofNeedsSigma: a derivation expands only against a Σ
// that holds every FD it fired, as a checker holding Σ and the text
// needs; one missing FD fails the expansion and names its step.
func TestDerivationProofNeedsSigma(t *testing.T) {
	p, goal := chainProof(4)
	d, ok := p.Prove(goal, nil)
	if !ok || d.Len() != 3 {
		t.Fatalf("ok=%v steps=%d, want a 3-step proof", ok, d.Len())
	}
	if _, err := d.Proof(goal, p.fds); err != nil {
		t.Fatalf("against its own Σ: %v", err)
	}
	without := []deps.FD{p.fds[0], p.fds[2]}
	want := "fd: step 2 derives A2 via R: A1 -> A2 (augmentation + transitivity), which is not in sigma"
	if _, err := d.Proof(goal, without); err == nil || err.Error() != want {
		t.Errorf("against %v: err %v, want %q", without, err, want)
	}
}

// TestDerivationOutlivesProver pins that a Derivation keeps no Prover
// alive: a cached answer holds its derivation for as long as the cache
// keeps it, and the prover is the whole compiled Σ. The derivation still
// renders its text once the prover is collected.
func TestDerivationOutlivesProver(t *testing.T) {
	p, goal := chainProof(15)
	collected := make(chan struct{})
	runtime.SetFinalizer(p, func(*Prover) { close(collected) })
	d, _ := p.Prove(goal, nil)
	want := d.Render(goal, goal.String())
	p = nil
	deadline := time.After(time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the prover was not collected while its derivation lived")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := d.Render(goal, goal.String()); got != want {
		t.Errorf("after the prover was collected, Render =\n%s\nwant\n%s", got, want)
	}
}

// TestProverProofAllocs pins the per-goal cost of a compiled proof: Prove
// plus Render of a 14-step chain proof, under goal text rendered once as
// a server renders it, stays within 2 allocations (the steps and the
// text), because each FD's step line is rendered once by NewProver, the
// closure's scratch stays on the stack, a step is two int32 positions,
// and the text is written into one sized builder.
func TestProverProofAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	p, goal := chainProof(15)
	proof, ok := p.Prove(goal, nil)
	if !ok || proof.Len() != 14 {
		t.Fatalf("chain proof: ok=%v steps=%d, want 14 steps", ok, proof.Len())
	}
	text := goal.String()
	allocs := testing.AllocsPerRun(200, func() {
		proof, _ := p.Prove(goal, nil)
		_ = proof.Render(goal, text)
	})
	if allocs > 2 {
		t.Errorf("Prove+Render of a 14-step proof: %.0f allocs, want <= 2", allocs)
	}
}

// BenchmarkProverProof times Prove plus Render of the 14-step chain
// proof.
func BenchmarkProverProof(b *testing.B) {
	p, goal := chainProof(15)
	text := goal.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proof, _ := p.Prove(goal, nil)
		_ = proof.Render(goal, text)
	}
}
