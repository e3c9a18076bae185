// Quickstart: declare a database scheme, add functional and inclusion
// dependencies, and ask implication questions with proofs and
// counterexamples.
package main

import (
	"fmt"
	"log"

	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/schema"
)

func main() {
	// A scheme with managers and employees, as in the paper's
	// introduction.
	db := schema.MustDatabase(
		schema.MustScheme("MGR", "NAME", "DEPT"),
		schema.MustScheme("EMP", "NAME", "DEPT", "SAL"),
	)
	sys := core.NewSystem(db)

	// Every manager is an employee of the department they manage, and an
	// employee's name determines department and salary.
	if err := sys.Add(
		deps.NewIND("MGR", deps.Attrs("NAME", "DEPT"), "EMP", deps.Attrs("NAME", "DEPT")),
		deps.NewFD("EMP", deps.Attrs("NAME"), deps.Attrs("DEPT", "SAL")),
	); err != nil {
		log.Fatal(err)
	}

	// Is every manager name an employee name? (Yes — projection, IND2.)
	goal := deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME"))
	a, err := sys.Implies(goal, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ ⊨ %v?  %v  [engine: %s]\n", goal, a.Verdict, a.Engine)
	fmt.Println(a.ProofText(core.Goal{Dep: goal}))
	fmt.Println()

	// Does a manager's name determine their department? This needs the
	// FD/IND interaction of Proposition 4.1 and is found by the chase.
	goal2 := deps.NewFD("MGR", deps.Attrs("NAME"), deps.Attrs("DEPT"))
	a2, err := sys.Implies(goal2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ ⊨ %v?  %v  [engine: %s]\n", goal2, a2.Verdict, a2.Engine)
	fmt.Println()

	// Is every employee a manager? No — and we get a finite
	// counterexample database.
	goal3 := deps.NewIND("EMP", deps.Attrs("NAME"), "MGR", deps.Attrs("NAME"))
	a3, err := sys.Implies(goal3, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ ⊨ %v?  %v  [engine: %s]\n", goal3, a3.Verdict, a3.Engine)
	if a3.Counterexample != nil {
		fmt.Println("counterexample:")
		fmt.Println(a3.Counterexample)
	}
}
