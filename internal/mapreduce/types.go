// Package mapreduce is the Hadoop-substitute substrate: a working
// MapReduce engine that both executes jobs (really running the user's
// map/combine/reduce functions over materialised inputs, with input
// splitting, hash partitioning, combiner application and sort-merge
// reduce) and simulates their performance on a virtual-time EC2-style
// cluster (paper Section 6.1's testbed).
//
// Timing never comes from the wall clock. Every task is a sequence of
// stages (CPU work, network shuffle, sort-merge) whose progress is
// integrated under per-instance contention: an instance's running tasks
// plus its background load share its cores, so a lone task on an
// otherwise idle instance runs faster than one sharing the machine —
// exactly the phenomenon behind the paper's WhyLastTaskFaster query.
// Configuration parameters behave as in Hadoop: dfs.block.size determines
// the number of map tasks, mapred.reduce.tasks the reduce count, and
// io.sort.factor the number of merge passes a reduce pays for.
package mapreduce

import (
	"fmt"

	"perfxplain/internal/excite"
	"perfxplain/internal/pig"
)

// Config is the per-job configuration swept in the paper's Table 2.
type Config struct {
	// NumInstances is the cluster size.
	NumInstances int
	// BlockSize is dfs.block.size in bytes; input splits never exceed it.
	BlockSize int64
	// ReduceTasksFactor sets mapred.reduce.tasks to
	// ceil(factor × NumInstances) for scripts with a reduce phase.
	ReduceTasksFactor float64
	// IOSortFactor is io.sort.factor: segments merged per pass.
	IOSortFactor int
	// Seed drives all job-level randomness (noise, skew, cluster
	// heterogeneity).
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumInstances < 1 {
		return fmt.Errorf("mapreduce: NumInstances = %d, need >= 1", c.NumInstances)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("mapreduce: BlockSize = %d, need > 0", c.BlockSize)
	}
	if c.ReduceTasksFactor < 0 {
		return fmt.Errorf("mapreduce: ReduceTasksFactor = %v, need >= 0", c.ReduceTasksFactor)
	}
	if c.IOSortFactor < 2 {
		return fmt.Errorf("mapreduce: IOSortFactor = %d, need >= 2", c.IOSortFactor)
	}
	return nil
}

// NumReduceTasks resolves the reduce count for a script.
func (c Config) NumReduceTasks(s *pig.Script) int {
	if s.MapOnly || c.ReduceTasksFactor == 0 {
		return 0
	}
	n := int(c.ReduceTasksFactor * float64(c.NumInstances))
	if float64(n) < c.ReduceTasksFactor*float64(c.NumInstances) {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// JobSpec describes one job execution.
type JobSpec struct {
	// ID names the job (e.g. "job-0042").
	ID string
	// Script is the workload.
	Script *pig.Script
	// Input describes the dataset. When Lines is nil the engine runs in
	// sized mode, deriving counters from these aggregates.
	Input excite.Dataset
	// Lines optionally materialises the input; the engine then executes
	// the script functions for real and all counters are exact.
	Lines []string
	// Config is the job configuration.
	Config Config
}

// KV is an output key/value pair from a real execution.
type KV struct {
	Key, Value string
}

// TaskResult is everything the substrate logs about one task: the
// Hadoop-log counters plus the averaged Ganglia metrics, i.e. the raw
// feature vector PerfXplain extracts per task (paper Section 3.1).
type TaskResult struct {
	ID          string
	JobID       string
	Type        string // "MAP" or "REDUCE"
	Index       int    // task number within its type
	Host        string
	TrackerName string
	Slot        int

	Start, Finish float64 // virtual seconds from job submit
	ShuffleTime   float64 // reduce only
	SortTime      float64 // reduce only

	InputBytes    int64
	InputRecords  int64
	OutputBytes   int64
	OutputRecords int64

	HDFSBytesRead        int64
	HDFSBytesWritten     int64
	FileBytesWritten     int64
	ShuffleBytes         int64 // reduce only
	SpilledRecords       int64
	CombineInputRecords  int64
	CombineOutputRecords int64
	MergePasses          int

	CPUSeconds float64 // nominal work, before contention
	GCTime     float64

	Ganglia map[string]float64 // avg_<metric> over the task's window
}

// Duration is the task runtime in virtual seconds.
func (t *TaskResult) Duration() float64 { return t.Finish - t.Start }

// JobResult is one logged job execution.
type JobResult struct {
	ID     string
	Script string
	Config Config
	Input  excite.Dataset

	NumMapTasks    int
	NumReduceTasks int

	Start, Finish float64 // virtual seconds; Start is always 0
	Tasks         []*TaskResult

	Ganglia map[string]float64 // task-average metrics percolated up

	// Output holds the job's real output when the input was materialised.
	Output []KV
}

// Duration is the job runtime in virtual seconds.
func (j *JobResult) Duration() float64 { return j.Finish - j.Start }

// SumTasksF folds a float64 accessor over all tasks.
func (j *JobResult) SumTasksF(f func(*TaskResult) float64) float64 {
	var s float64
	for _, t := range j.Tasks {
		s += f(t)
	}
	return s
}
