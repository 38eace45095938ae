package perfxplain_test

import (
	"context"
	"fmt"
	"log"

	"perfxplain"
)

// The canonical flow: collect (or load) a log, pose a PXQL query, explain.
func Example() {
	jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	q, err := perfxplain.ParseQuery(`
		DESPITE numinstances_issame = T AND pigscript_issame = T
		OBSERVED duration_compare = GT
		EXPECTED duration_compare = SIM`)
	if err != nil {
		log.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(jobs, q, 1, 0)
	if !ok {
		log.Fatal("no matching pair")
	}
	q.Bind(id1, id2)

	ex, err := perfxplain.NewExplainer(jobs, perfxplain.Options{Width: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(x.Because())
	// Output: inputsize_compare = GT
}

// PXQL queries round-trip through their string form.
func ExampleParseQuery() {
	q, err := perfxplain.ParseQuery(`
		FOR J1, J2 WHERE J1.JobID = 'job-0012' AND J2.JobID = 'job-0340'
		DESPITE blocksize >= 128MB
		OBSERVED duration_compare = SIM
		EXPECTED duration_compare = GT`)
	if err != nil {
		log.Fatal(err)
	}
	id1, id2 := q.Pair()
	fmt.Println(id1, id2)
	// Output: job-0012 job-0340
}

// Queries about metrics other than runtime use NewTargetQuery plus
// Options.Target.
func ExampleNewTargetQuery() {
	q, err := perfxplain.NewTargetQuery("hdfs_bytes_written", "GT", "SIM")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q)
	// Output:
	// OBSERVED hdfs_bytes_written_compare = GT
	// EXPECTED hdfs_bytes_written_compare = SIM
}
