// HadoopLog: adopt PerfXplain over a directory of Hadoop-style job
// history files. The first half of this example plays the role of the
// outside world — a cluster writing history files (here produced by the
// simulator, exactly what `pxqlcollect -history` emits). The second half
// is the consumer side, pure public API: parse the files into an
// execution log and answer a query over it.
//
//	go run ./examples/hadooplog
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"

	"perfxplain"
	"perfxplain/internal/collect"
	"perfxplain/internal/hadooplog"
)

func main() {
	// --- The outside world: a cluster producing history files. ---------
	res, err := collect.SmallSweep(42).Collect()
	if err != nil {
		log.Fatal(err)
	}
	var files []io.Reader
	for _, job := range res.Results {
		var buf bytes.Buffer
		if err := hadooplog.WriteJob(&buf, job); err != nil {
			log.Fatal(err)
		}
		files = append(files, &buf)
	}
	fmt.Printf("parsed %d Hadoop-style history files\n", len(files))

	// --- The consumer: public API from here on. ------------------------
	jobs, tasks, err := perfxplain.LogsFromHistory(files...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed logs: %d jobs, %d tasks\n", jobs.Len(), tasks.Len())
	fmt.Println("note: history files carry no Ganglia metrics, so those " +
		"features are missing —\nPerfXplain handles missing features natively.")
	fmt.Println()

	q, err := perfxplain.ParseQuery(`
		DESPITE numinstances_issame = T AND pigscript_issame = T
		OBSERVED duration_compare = GT
		EXPECTED duration_compare = SIM`)
	if err != nil {
		log.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(jobs, q, 5, 0)
	if !ok {
		log.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)

	ex, err := perfxplain.NewExplainer(jobs, perfxplain.Options{Width: 3, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query over %s vs %s:\n%s\n", id1, id2, x)
}
