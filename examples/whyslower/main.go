// WhySlower: the paper's job-level benchmark query
// (WhySlowerDespiteSameNumInstances, Section 6.2) run against the full
// Table 2 log, comparing all three explanation techniques on a held-out
// log — a miniature of Figure 3(b).
//
//	go run ./examples/whyslower
package main

import (
	"context"
	"fmt"
	"log"

	"perfxplain"
)

func main() {
	// Two independent sweeps: one to learn from, one to judge on.
	train, _, err := perfxplain.Collect(perfxplain.SweepOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	test, _, err := perfxplain.Collect(perfxplain.SweepOptions{Seed: 43})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("train log: %d jobs, held-out log: %d jobs\n\n", train.Len(), test.Len())

	q, err := perfxplain.ParseQuery(`
		DESPITE numinstances_issame = T AND pigscript_issame = T
		OBSERVED duration_compare = GT
		EXPECTED duration_compare = SIM`)
	if err != nil {
		log.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(train, q, 7, 0)
	if !ok {
		log.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)
	fmt.Printf("pair of interest: %s vs %s\n", id1, id2)
	in1, _ := train.Feature(id1, "inputsize")
	in2, _ := train.Feature(id2, "inputsize")
	d1, _ := train.Feature(id1, "duration")
	d2, _ := train.Feature(id2, "duration")
	fmt.Printf("  %s: input %s bytes, duration %ss\n", id1, in1, d1)
	fmt.Printf("  %s: input %s bytes, duration %ss\n\n", id2, in2, d2)

	ex, err := perfxplain.NewExplainer(train, perfxplain.Options{Width: 3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	px, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	rot, err := perfxplain.RuleOfThumbExplain(train, q, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	sbd, err := perfxplain.SimButDiffExplainP(train, q, 3, 7, 0)
	if err != nil {
		log.Fatal(err)
	}

	for _, entry := range []struct {
		name string
		x    *perfxplain.Explanation
	}{
		{"PerfXplain", px},
		{"RuleOfThumb", rot},
		{"SimButDiff", sbd},
	} {
		m, err := perfxplain.Evaluate(test, q, entry.x, perfxplain.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s BECAUSE %s\n", entry.name, entry.x.Because())
		fmt.Printf("             held-out precision %.3f, generality %.3f\n\n",
			m.Precision, m.Generality)
	}
}
