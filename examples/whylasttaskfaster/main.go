// WhyLastTaskFaster: the paper's task-level benchmark query (Section
// 6.2, query 1) — the authors' own puzzle while collecting their data:
// why does the last task on an instance run faster than the earlier
// tasks on the same instance, even though every task processes a similar
// amount of data?
//
//	go run ./examples/whylasttaskfaster
package main

import (
	"context"
	"fmt"
	"log"

	"perfxplain"
)

func main() {
	_, tasks, err := perfxplain.Collect(perfxplain.SweepOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task log: %d task executions\n\n", tasks.Len())

	q, err := perfxplain.ParseQuery(`
		DESPITE jobid_issame = T AND inputsize_compare = SIM AND hostname_issame = T
		OBSERVED duration_compare = LT
		EXPECTED duration_compare = SIM`)
	if err != nil {
		log.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(tasks, q, 3, 0)
	if !ok {
		log.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)
	fmt.Printf("pair of interest: task %s (fast) vs %s on the same instance\n", id1, id2)
	cpu1, _ := tasks.Feature(id1, "avg_cpu_user")
	cpu2, _ := tasks.Feature(id2, "avg_cpu_user")
	d1, _ := tasks.Feature(id1, "duration")
	d2, _ := tasks.Feature(id2, "duration")
	fmt.Printf("  %s: duration %ss, avg cpu_user %s%%\n", id1, d1, cpu1)
	fmt.Printf("  %s: duration %ss, avg cpu_user %s%%\n\n", id2, d2, cpu2)

	ex, err := perfxplain.NewExplainer(tasks, perfxplain.Options{Width: 3, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PerfXplain says:")
	fmt.Println(x)
	fmt.Println("\nThe paper's reading: the task ran when the machine was less" +
		"\nloaded (fewer concurrent tasks / lower CPU utilisation) — here the" +
		"\nclause points at the same monitoring features.")
}
