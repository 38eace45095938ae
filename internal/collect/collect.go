// Package collect turns simulated job executions into PerfXplain
// execution logs: it defines the job and task feature schemas (the
// paper's Section 3.1 features — configuration parameters, data
// characteristics, MapReduce counters, and Ganglia averages), converts
// engine results into joblog records, and runs the full Table 2
// parameter sweep that produced the paper's evaluation log.
package collect

import (
	"fmt"

	"perfxplain/internal/excite"
	"perfxplain/internal/joblog"
	"perfxplain/internal/mapreduce"
	"perfxplain/internal/par"
	"perfxplain/internal/pig"
	"perfxplain/internal/stats"
)

// gangliaJobMetrics are the monitoring averages percolated to jobs.
// boottime is omitted at job level: averaging boot timestamps across
// instances is meaningless.
var gangliaJobMetrics = []string{
	"avg_cpu_user", "avg_cpu_idle", "avg_load_one", "avg_load_five",
	"avg_proc_total", "avg_bytes_in", "avg_bytes_out", "avg_pkts_in",
	"avg_pkts_out", "avg_mem_free",
}

// gangliaTaskMetrics additionally keep boottime, which identifies the
// physical instance — the paper's example of an overly-specific feature
// that generality must penalise.
var gangliaTaskMetrics = append(append([]string{}, gangliaJobMetrics...), "avg_boottime")

// JobSchema returns the raw feature schema for job records. The duration
// target is the last field.
func JobSchema() *joblog.Schema {
	fields := []joblog.Field{
		{Name: "pigscript", Kind: joblog.Nominal},
		{Name: "clustername", Kind: joblog.Nominal},
		{Name: "instancetype", Kind: joblog.Nominal},
		{Name: "numinstances", Kind: joblog.Numeric},
		{Name: "inputsize", Kind: joblog.Numeric},
		{Name: "inputrecords", Kind: joblog.Numeric},
		{Name: "blocksize", Kind: joblog.Numeric},
		{Name: "reducefactor", Kind: joblog.Numeric},
		{Name: "numreducetasks", Kind: joblog.Numeric},
		{Name: "iosortfactor", Kind: joblog.Numeric},
		{Name: "nummaptasks", Kind: joblog.Numeric},
		{Name: "mapslots", Kind: joblog.Numeric},
		{Name: "reduceslots", Kind: joblog.Numeric},
		{Name: "starttime", Kind: joblog.Numeric},
		{Name: "map_output_bytes", Kind: joblog.Numeric},
		{Name: "map_output_records", Kind: joblog.Numeric},
		{Name: "map_input_records", Kind: joblog.Numeric},
		{Name: "hdfs_bytes_read", Kind: joblog.Numeric},
		{Name: "hdfs_bytes_written", Kind: joblog.Numeric},
		{Name: "file_bytes_written", Kind: joblog.Numeric},
		{Name: "shuffle_bytes", Kind: joblog.Numeric},
		{Name: "spilled_records", Kind: joblog.Numeric},
		{Name: "sorttime_total", Kind: joblog.Numeric},
		{Name: "shuffletime_total", Kind: joblog.Numeric},
		{Name: "cpu_seconds_total", Kind: joblog.Numeric},
		{Name: "gc_time_total", Kind: joblog.Numeric},
	}
	for _, m := range gangliaJobMetrics {
		fields = append(fields, joblog.Field{Name: m, Kind: joblog.Numeric})
	}
	fields = append(fields, joblog.Field{Name: "duration", Kind: joblog.Numeric})
	return joblog.NewSchema(fields)
}

// TaskSchema returns the raw feature schema for task records.
func TaskSchema() *joblog.Schema {
	fields := []joblog.Field{
		{Name: "jobid", Kind: joblog.Nominal},
		{Name: "tasktype", Kind: joblog.Nominal},
		{Name: "hostname", Kind: joblog.Nominal},
		{Name: "tracker_name", Kind: joblog.Nominal},
		{Name: "pigscript", Kind: joblog.Nominal},
		{Name: "status", Kind: joblog.Nominal},
		{Name: "taskindex", Kind: joblog.Numeric},
		{Name: "slot", Kind: joblog.Numeric},
		{Name: "starttime", Kind: joblog.Numeric},
		{Name: "taskfinishtime", Kind: joblog.Numeric},
		{Name: "inputsize", Kind: joblog.Numeric},
		{Name: "input_records", Kind: joblog.Numeric},
		{Name: "output_bytes", Kind: joblog.Numeric},
		{Name: "output_records", Kind: joblog.Numeric},
		{Name: "map_input_bytes", Kind: joblog.Numeric},
		{Name: "map_input_records", Kind: joblog.Numeric},
		{Name: "map_output_bytes", Kind: joblog.Numeric},
		{Name: "map_output_records", Kind: joblog.Numeric},
		{Name: "reduce_shuffle_bytes", Kind: joblog.Numeric},
		{Name: "hdfs_bytes_read", Kind: joblog.Numeric},
		{Name: "hdfs_bytes_written", Kind: joblog.Numeric},
		{Name: "file_bytes_written", Kind: joblog.Numeric},
		{Name: "spilled_records", Kind: joblog.Numeric},
		{Name: "combine_input_records", Kind: joblog.Numeric},
		{Name: "combine_output_records", Kind: joblog.Numeric},
		{Name: "merge_passes", Kind: joblog.Numeric},
		{Name: "sorttime", Kind: joblog.Numeric},
		{Name: "shuffletime", Kind: joblog.Numeric},
		{Name: "cpu_seconds", Kind: joblog.Numeric},
		{Name: "gc_time", Kind: joblog.Numeric},
		{Name: "numinstances", Kind: joblog.Numeric},
		{Name: "blocksize", Kind: joblog.Numeric},
		{Name: "reducefactor", Kind: joblog.Numeric},
		{Name: "numreducetasks", Kind: joblog.Numeric},
		{Name: "iosortfactor", Kind: joblog.Numeric},
		{Name: "job_inputsize", Kind: joblog.Numeric},
	}
	for _, m := range gangliaTaskMetrics {
		fields = append(fields, joblog.Field{Name: m, Kind: joblog.Numeric})
	}
	fields = append(fields, joblog.Field{Name: "duration", Kind: joblog.Numeric})
	return joblog.NewSchema(fields)
}

// set assigns a named field in a record under its schema; unknown names
// panic since the schemas above are fixed at compile time.
func set(schema *joblog.Schema, rec *joblog.Record, name string, v joblog.Value) {
	rec.Values[schema.MustIndex(name)] = v
}

// nominal is v as a nominal cell: an empty string is a missing cell, as
// every log format reads it back.
func nominal(v string) joblog.Value {
	if v == "" {
		return joblog.None()
	}
	return joblog.Str(v)
}

// JobRecord converts an engine result into a job log record. submitOffset
// shifts the job's virtual clock onto the log-wide timeline.
func JobRecord(schema *joblog.Schema, res *mapreduce.JobResult, submitOffset float64) *joblog.Record {
	rec := &joblog.Record{ID: res.ID, Values: make([]joblog.Value, schema.Len())}
	num := func(name string, v float64) { set(schema, rec, name, joblog.Num(v)) }
	str := func(name, v string) { set(schema, rec, name, nominal(v)) }

	str("pigscript", res.Script)
	str("clustername", "ec2-sim")
	str("instancetype", "m1.small")
	num("numinstances", float64(res.Config.NumInstances))
	num("inputsize", float64(res.Input.Bytes))
	num("inputrecords", float64(res.Input.Records))
	num("blocksize", float64(res.Config.BlockSize))
	num("reducefactor", res.Config.ReduceTasksFactor)
	num("numreducetasks", float64(res.NumReduceTasks))
	num("iosortfactor", float64(res.Config.IOSortFactor))
	num("nummaptasks", float64(res.NumMapTasks))
	num("mapslots", float64(res.Config.NumInstances*2))
	num("reduceslots", float64(res.Config.NumInstances*2))
	num("starttime", submitOffset)

	sumWhere := func(typ string, f func(*mapreduce.TaskResult) int64) float64 {
		var s int64
		for _, t := range res.Tasks {
			if typ == "" || t.Type == typ {
				s += f(t)
			}
		}
		return float64(s)
	}
	num("map_output_bytes", sumWhere("MAP", func(t *mapreduce.TaskResult) int64 { return t.OutputBytes }))
	num("map_output_records", sumWhere("MAP", func(t *mapreduce.TaskResult) int64 { return t.OutputRecords }))
	num("map_input_records", sumWhere("MAP", func(t *mapreduce.TaskResult) int64 { return t.InputRecords }))
	num("hdfs_bytes_read", sumWhere("", func(t *mapreduce.TaskResult) int64 { return t.HDFSBytesRead }))
	num("hdfs_bytes_written", sumWhere("", func(t *mapreduce.TaskResult) int64 { return t.HDFSBytesWritten }))
	num("file_bytes_written", sumWhere("", func(t *mapreduce.TaskResult) int64 { return t.FileBytesWritten }))
	num("shuffle_bytes", sumWhere("REDUCE", func(t *mapreduce.TaskResult) int64 { return t.ShuffleBytes }))
	num("spilled_records", sumWhere("", func(t *mapreduce.TaskResult) int64 { return t.SpilledRecords }))
	num("sorttime_total", res.SumTasksF(func(t *mapreduce.TaskResult) float64 { return t.SortTime }))
	num("shuffletime_total", res.SumTasksF(func(t *mapreduce.TaskResult) float64 { return t.ShuffleTime }))
	num("cpu_seconds_total", res.SumTasksF(func(t *mapreduce.TaskResult) float64 { return t.CPUSeconds }))
	num("gc_time_total", res.SumTasksF(func(t *mapreduce.TaskResult) float64 { return t.GCTime }))

	for _, m := range gangliaJobMetrics {
		if v, ok := res.Ganglia[m]; ok {
			num(m, v)
		}
	}
	num("duration", res.Duration())
	return rec
}

// TaskRecords converts the engine result's tasks into task log records.
func TaskRecords(schema *joblog.Schema, res *mapreduce.JobResult, submitOffset float64) []*joblog.Record {
	out := make([]*joblog.Record, 0, len(res.Tasks))
	for _, t := range res.Tasks {
		rec := &joblog.Record{ID: t.ID, Values: make([]joblog.Value, schema.Len())}
		num := func(name string, v float64) { set(schema, rec, name, joblog.Num(v)) }
		str := func(name, v string) { set(schema, rec, name, nominal(v)) }

		str("jobid", t.JobID)
		str("tasktype", t.Type)
		str("hostname", t.Host)
		str("tracker_name", t.TrackerName)
		str("pigscript", res.Script)
		str("status", "SUCCESS")
		num("taskindex", float64(t.Index))
		num("slot", float64(t.Slot))
		num("starttime", submitOffset+t.Start)
		num("taskfinishtime", submitOffset+t.Finish)
		num("inputsize", float64(t.InputBytes))
		num("input_records", float64(t.InputRecords))
		num("output_bytes", float64(t.OutputBytes))
		num("output_records", float64(t.OutputRecords))
		if t.Type == "MAP" {
			num("map_input_bytes", float64(t.InputBytes))
			num("map_input_records", float64(t.InputRecords))
			num("map_output_bytes", float64(t.OutputBytes))
			num("map_output_records", float64(t.OutputRecords))
			// reduce_shuffle_bytes stays missing for maps.
		} else {
			num("reduce_shuffle_bytes", float64(t.ShuffleBytes))
		}
		num("hdfs_bytes_read", float64(t.HDFSBytesRead))
		num("hdfs_bytes_written", float64(t.HDFSBytesWritten))
		num("file_bytes_written", float64(t.FileBytesWritten))
		num("spilled_records", float64(t.SpilledRecords))
		num("combine_input_records", float64(t.CombineInputRecords))
		num("combine_output_records", float64(t.CombineOutputRecords))
		num("merge_passes", float64(t.MergePasses))
		num("sorttime", t.SortTime)
		num("shuffletime", t.ShuffleTime)
		num("cpu_seconds", t.CPUSeconds)
		num("gc_time", t.GCTime)
		num("numinstances", float64(res.Config.NumInstances))
		num("blocksize", float64(res.Config.BlockSize))
		num("reducefactor", res.Config.ReduceTasksFactor)
		num("numreducetasks", float64(res.NumReduceTasks))
		num("iosortfactor", float64(res.Config.IOSortFactor))
		num("job_inputsize", float64(res.Input.Bytes))
		for _, m := range gangliaTaskMetrics {
			if v, ok := t.Ganglia[m]; ok {
				num(m, v)
			}
		}
		num("duration", t.Duration())
		out = append(out, rec)
	}
	return out
}

// Sweep is a parameter grid of job executions.
type Sweep struct {
	Instances     []int
	InputBytes    []int64
	BlockSizes    []int64
	ReduceFactors []float64
	IOSortFactors []int
	Scripts       []string
	// Seed derives each job's seed; two sweeps with the same seed produce
	// identical logs.
	Seed int64
	// Parallelism bounds the worker goroutines simulating grid cells
	// (<= 0 means GOMAXPROCS). Each job derives its own seed from its grid
	// position and the records are assembled serially in grid order, so
	// the collected log is byte-identical at every setting.
	Parallelism int
}

const gb = 1 << 30

// gapSeconds is the idle time inserted between jobs on the log-wide
// timeline.
const gapSeconds = 60

// DefaultSweep is the paper's Table 2 grid: 5 × 2 × 3 × 3 × 3 × 2 = 540
// job executions.
func DefaultSweep(seed int64) Sweep {
	return Sweep{
		Instances:     []int{1, 2, 4, 8, 16},
		InputBytes:    []int64{13 * gb / 10, 26 * gb / 10}, // 1.3 GB, 2.6 GB
		BlockSizes:    []int64{64 << 20, 256 << 20, 1024 << 20},
		ReduceFactors: []float64{1.0, 1.5, 2.0},
		IOSortFactors: []int{10, 50, 100},
		Scripts:       []string{"simple-filter.pig", "simple-groupby.pig"},
		Seed:          seed,
	}
}

// SmallSweep is a reduced grid for tests and examples: 32 jobs.
func SmallSweep(seed int64) Sweep {
	return Sweep{
		Instances:     []int{1, 4},
		InputBytes:    []int64{96 << 20, 192 << 20},
		BlockSizes:    []int64{16 << 20, 64 << 20},
		ReduceFactors: []float64{1.0},
		IOSortFactors: []int{10, 100},
		Scripts:       []string{"simple-filter.pig", "simple-groupby.pig"},
		Seed:          seed,
	}
}

// NumJobs returns the grid cardinality.
func (s Sweep) NumJobs() int {
	return len(s.Instances) * len(s.InputBytes) * len(s.BlockSizes) *
		len(s.ReduceFactors) * len(s.IOSortFactors) * len(s.Scripts)
}

// Result bundles the artifacts of a sweep.
type Result struct {
	Jobs    *joblog.Log
	Tasks   *joblog.Log
	Results []*mapreduce.JobResult
}

// Collect runs the whole grid on the simulated cluster and assembles the
// execution logs. Cells simulate concurrently on the worker pool — each
// job's seed derives from its grid position alone — while records are
// assembled serially in grid order with the cumulative timeline offset,
// so the collected log is byte-identical at every worker count.
func (s Sweep) Collect() (*Result, error) {
	specs, err := s.specs()
	if err != nil {
		return nil, err
	}

	results := make([]*mapreduce.JobResult, len(specs))
	errs := make([]error, len(specs))
	par.Do(len(specs), s.Parallelism, func(i int) {
		results[i], errs[i] = mapreduce.Run(specs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("collect: %s: %w", specs[i].ID, err)
		}
	}

	jobSchema := JobSchema()
	taskSchema := TaskSchema()
	out := &Result{
		Jobs:  joblog.NewLog(jobSchema),
		Tasks: joblog.NewLog(taskSchema),
	}
	offset := 0.0
	for _, res := range results {
		out.Jobs.MustAppend(JobRecord(jobSchema, res, offset))
		for _, tr := range TaskRecords(taskSchema, res, offset) {
			out.Tasks.MustAppend(tr)
		}
		out.Results = append(out.Results, res)
		offset += res.Duration() + gapSeconds
	}
	return out, nil
}

// specs expands the grid into per-cell job specs in grid order, deriving
// each job's seed from the sweep seed and its position — the unit of
// parallel simulation.
func (s Sweep) specs() ([]mapreduce.JobSpec, error) {
	specs := make([]mapreduce.JobSpec, 0, s.NumJobs())
	idx := 0
	for _, script := range s.Scripts {
		sc, err := pig.ByName(script)
		if err != nil {
			return nil, err
		}
		for _, inst := range s.Instances {
			for _, in := range s.InputBytes {
				for _, bs := range s.BlockSizes {
					for _, rf := range s.ReduceFactors {
						for _, iosf := range s.IOSortFactors {
							id := fmt.Sprintf("job-%04d", idx)
							specs = append(specs, mapreduce.JobSpec{
								ID:     id,
								Script: sc,
								Input:  excite.DatasetForBytes("excite", in),
								Config: mapreduce.Config{
									NumInstances:      inst,
									BlockSize:         bs,
									ReduceTasksFactor: rf,
									IOSortFactor:      iosf,
									Seed:              stats.DeriveRand(s.Seed, "sweep-"+id).Int63(),
								},
							})
							idx++
						}
					}
				}
			}
		}
	}
	return specs, nil
}
