// DespiteGen: PerfXplain's answer to an under-specified query (paper
// Section 6.4). The user asks why a job was slower but gives no despite
// clause; PerfXplain generates one, raising the query's relevance before
// explaining.
//
//	go run ./examples/despitegen
package main

import (
	"context"
	"fmt"
	"log"

	"perfxplain"
)

func main() {
	jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// No DESPITE clause: the user only states what surprised them.
	q, err := perfxplain.ParseQuery(`
		OBSERVED duration_compare = GT
		EXPECTED duration_compare = SIM`)
	if err != nil {
		log.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(jobs, q, 11, 0)
	if !ok {
		log.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)

	ex, err := perfxplain.NewExplainer(jobs, perfxplain.Options{Width: 3, DespiteWidth: 3, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Relevance of the raw query: how likely is the expected behaviour
	// given no context at all?
	empty, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relevance with empty despite clause:     %.2f\n", empty.TrainRelevance())

	// Let PerfXplain build the despite clause, then explain within it.
	x, err := ex.ExplainWithDespiteContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relevance with generated despite clause: %.2f\n\n", x.TrainRelevance())
	fmt.Println("full explanation:")
	fmt.Println(x)
}
