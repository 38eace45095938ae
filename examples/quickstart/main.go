// Quickstart: collect a small simulated execution log, ask why one job
// was slower than another, and print PerfXplain's explanation.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"perfxplain"
)

func main() {
	// Collect a small log of simulated MapReduce executions (32 jobs over
	// the reduced parameter grid). In a real deployment this log would
	// come from your cluster's history via perfxplain.LogsFromHistory or
	// perfxplain.ReadLogCSV.
	jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected a log of %d job executions\n\n", jobs.Len())

	// The paper's motivating question: despite running the same script on
	// the same number of instances, one job was much slower than another.
	// I expected similar durations. Why?
	q, err := perfxplain.ParseQuery(`
		DESPITE numinstances_issame = T AND pigscript_issame = T
		OBSERVED duration_compare = GT
		EXPECTED duration_compare = SIM`)
	if err != nil {
		log.Fatal(err)
	}

	// Pick a concrete pair of jobs exhibiting the observed behaviour.
	id1, id2, ok := perfxplain.FindPairOfInterestP(jobs, q, 1, 0)
	if !ok {
		log.Fatal("no pair of jobs in the log matches the query")
	}
	q.Bind(id1, id2)
	fmt.Printf("asking about jobs %s (slow) and %s (fast):\n%s\n\n", id1, id2, q)

	ex, err := perfxplain.NewExplainer(jobs, perfxplain.Options{Width: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PerfXplain says:")
	fmt.Println(x)
	fmt.Printf("\n(training precision %.2f, generality %.2f)\n",
		x.TrainPrecision(), x.TrainGenerality())
}
