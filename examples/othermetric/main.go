// OtherMetric: the paper's conclusion notes the approach "can readily be
// applied to other performance metrics". This example explains a
// *data-volume* anomaly instead of a runtime one: why did one job write
// far more HDFS bytes than another?
//
//	go run ./examples/othermetric
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

	// Observed: J1 wrote much more to HDFS than J2. Expected: similar.
	q, err := perfxplain.NewTargetQuery("hdfs_bytes_written", "GT", "SIM")
	if err != nil {
		log.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(jobs, q, 13, 0)
	if !ok {
		log.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)
	w1, _ := jobs.Feature(id1, "hdfs_bytes_written")
	w2, _ := jobs.Feature(id2, "hdfs_bytes_written")
	s1, _ := jobs.Feature(id1, "pigscript")
	s2, _ := jobs.Feature(id2, "pigscript")
	fmt.Printf("pair of interest:\n  %s (%s) wrote %s bytes\n  %s (%s) wrote %s bytes\n\n",
		id1, s1, w1, id2, s2, w2)

	// Target switches the explained metric; its derived features are
	// excluded from clauses so the explanation cannot be circular.
	ex, err := perfxplain.NewExplainer(jobs, perfxplain.Options{
		Width:  3,
		Seed:   13,
		Target: "hdfs_bytes_written",
	})
	if err != nil {
		log.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PerfXplain says:")
	fmt.Println(x)
	fmt.Printf("\n(training precision %.2f)\n", x.TrainPrecision())
}
