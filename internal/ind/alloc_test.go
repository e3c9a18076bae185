package ind

import (
	"fmt"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/schema"
)

// width2Chain is the chain R0[A,B] ⊆ R1[A,B] ⊆ ... over n relations, the
// shape of depserve's inline IND documents, with the goal R0 ⊆ R(n-1)
// (implied) or its converse (not implied).
func width2Chain(n int, implied bool) (*schema.Database, []deps.IND, deps.IND) {
	schemes := make([]*schema.Scheme, n)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
		schemes[i] = schema.MustScheme(names[i], "A", "B")
	}
	var sigma []deps.IND
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, deps.NewIND(names[i], deps.Attrs("A", "B"), names[i+1], deps.Attrs("A", "B")))
	}
	from, to := names[0], names[n-1]
	if !implied {
		from, to = to, from
	}
	return schema.MustDatabase(schemes...), sigma, deps.NewIND(from, deps.Attrs("A", "B"), to, deps.Attrs("A", "B"))
}

// TestDecideAllocs pins the allocations of one Decide call on width-2
// IND chains. The frontier is keyed by relation and attribute IDs in one
// int32 table: measured 12, 6, 18 and 6 allocations (Go 1.24,
// linux/amd64), where string keys cost 28, 16, 60 and 31.
func TestDecideAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, tc := range []struct {
		relations int
		implied   bool
		ceiling   float64
	}{
		{3, true, 12},
		{3, false, 6},
		{8, true, 18},
		{8, false, 6},
	} {
		db, sigma, goal := width2Chain(tc.relations, tc.implied)
		got := testing.AllocsPerRun(200, func() {
			res, err := Decide(db, sigma, goal)
			if err != nil || res.Implied != tc.implied {
				t.Fatalf("%d relations: implied %v, err %v; want %v", tc.relations, res.Implied, err, tc.implied)
			}
		})
		t.Logf("%d relations, implied %v: %.1f allocs/call", tc.relations, tc.implied, got)
		if got > tc.ceiling {
			t.Errorf("%d relations, implied %v: %.1f allocs/call, ceiling %.0f", tc.relations, tc.implied, got, tc.ceiling)
		}
	}
}
