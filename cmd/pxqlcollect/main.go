// Command pxqlcollect runs the paper's Table 2 parameter sweep on the
// simulated EC2 cluster and writes the resulting execution logs:
//
//	pxqlcollect -out ./logs            # full 540-job sweep
//	pxqlcollect -out ./logs -small     # 32-job grid for quick trials
//	pxqlcollect -out ./logs -history   # also write Hadoop-style job history files
//
// Outputs: <out>/jobs.csv and <out>/tasks.csv (self-describing CSV logs
// consumable by pxql and the perfxplain library), and optionally
// <out>/history/<job-id>.log files in the Hadoop job-history format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"perfxplain/internal/collect"
	"perfxplain/internal/hadooplog"
)

func main() {
	out := flag.String("out", ".", "output directory")
	small := flag.Bool("small", false, "run the reduced 32-job grid instead of the full Table 2 sweep")
	seed := flag.Int64("seed", 42, "sweep seed (same seed, same log)")
	history := flag.Bool("history", false, "also write Hadoop-style job history files")
	parallelism := flag.Int("parallelism", 0, "worker goroutines simulating sweep cells (0 = all cores); the log is identical at every setting")
	flag.Parse()

	if err := run(*out, *small, *seed, *history, *parallelism); err != nil {
		fmt.Fprintln(os.Stderr, "pxqlcollect:", err)
		os.Exit(1)
	}
}

func run(out string, small bool, seed int64, history bool, parallelism int) error {
	sweep := collect.DefaultSweep(seed)
	if small {
		sweep = collect.SmallSweep(seed)
	}
	sweep.Parallelism = parallelism
	fmt.Printf("running %d simulated job executions...\n", sweep.NumJobs())
	res, err := sweep.Collect()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(out, "jobs.csv"), res.Jobs.WriteCSV); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(out, "tasks.csv"), res.Tasks.WriteCSV); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d jobs) and %s (%d tasks)\n",
		filepath.Join(out, "jobs.csv"), res.Jobs.Len(),
		filepath.Join(out, "tasks.csv"), res.Tasks.Len())

	if history {
		dir := filepath.Join(out, "history")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, job := range res.Results {
			f, err := os.Create(filepath.Join(dir, job.ID+".log"))
			if err != nil {
				return err
			}
			if err := hadooplog.WriteJob(f, job); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d history files under %s\n", len(res.Results), dir)
	}
	return nil
}

func writeCSV(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
