// Package hadooplog reads and writes Hadoop-0.20-style job history files,
// the raw log format the paper's PerfXplain implementation scraped its
// per-task features from ("PerfXplain extracts all details it can from
// the MapReduce log file", Section 6.1).
//
// The format is line-oriented: a record type followed by KEY="value"
// attributes and a terminating " .". Counters are embedded in a COUNTERS
// attribute encoded as {(group)(name)(value)} triples. Ganglia metrics
// are not part of Hadoop's history files — the paper collects them
// separately — so a round trip through this format preserves counters,
// placement and timing but not monitoring data.
package hadooplog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"perfxplain/internal/excite"
	"perfxplain/internal/mapreduce"
)

// Counter group and name constants mirroring Hadoop's.
const (
	groupFS   = "FileSystemCounters"
	groupTask = "org.apache.hadoop.mapred.Task$Counter"
)

// WriteJob renders a job's history in Hadoop style.
func WriteJob(w io.Writer, job *mapreduce.JobResult) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Meta VERSION=\"1\" .\n")

	jobAttrs := []attr{
		{"JOBID", job.ID},
		{"JOBNAME", job.Script},
		{"SUBMIT_TIME", ms(job.Start)},
		{"FINISH_TIME", ms(job.Finish)},
		{"JOB_STATUS", "SUCCESS"},
		{"TOTAL_MAPS", strconv.Itoa(job.NumMapTasks)},
		{"TOTAL_REDUCES", strconv.Itoa(job.NumReduceTasks)},
		{"NUM_INSTANCES", strconv.Itoa(job.Config.NumInstances)},
		{"DFS_BLOCK_SIZE", strconv.FormatInt(job.Config.BlockSize, 10)},
		{"REDUCE_TASKS_FACTOR", strconv.FormatFloat(job.Config.ReduceTasksFactor, 'g', -1, 64)},
		{"IO_SORT_FACTOR", strconv.Itoa(job.Config.IOSortFactor)},
		{"SIM_SEED", strconv.FormatInt(job.Config.Seed, 10)},
		{"INPUT_NAME", job.Input.Name},
		{"INPUT_BYTES", strconv.FormatInt(job.Input.Bytes, 10)},
		{"INPUT_RECORDS", strconv.FormatInt(job.Input.Records, 10)},
	}
	writeLine(bw, "Job", jobAttrs)

	for _, t := range job.Tasks {
		counters := counterString([]counter{
			{groupFS, "HDFS_BYTES_READ", t.HDFSBytesRead},
			{groupFS, "HDFS_BYTES_WRITTEN", t.HDFSBytesWritten},
			{groupFS, "FILE_BYTES_WRITTEN", t.FileBytesWritten},
			{groupTask, "INPUT_BYTES", t.InputBytes},
			{groupTask, "INPUT_RECORDS", t.InputRecords},
			{groupTask, "OUTPUT_BYTES", t.OutputBytes},
			{groupTask, "OUTPUT_RECORDS", t.OutputRecords},
			{groupTask, "REDUCE_SHUFFLE_BYTES", t.ShuffleBytes},
			{groupTask, "SPILLED_RECORDS", t.SpilledRecords},
			{groupTask, "COMBINE_INPUT_RECORDS", t.CombineInputRecords},
			{groupTask, "COMBINE_OUTPUT_RECORDS", t.CombineOutputRecords},
		})
		taskAttrs := []attr{
			{"TASKID", t.ID},
			{"TASK_TYPE", t.Type},
			{"TASK_INDEX", strconv.Itoa(t.Index)},
			{"START_TIME", ms(t.Start)},
			{"FINISH_TIME", ms(t.Finish)},
			{"HOSTNAME", t.Host},
			{"TRACKER_NAME", t.TrackerName},
			{"SLOT", strconv.Itoa(t.Slot)},
			{"SHUFFLE_TIME", ms(t.ShuffleTime)},
			{"SORT_TIME", ms(t.SortTime)},
			{"MERGE_PASSES", strconv.Itoa(t.MergePasses)},
			{"CPU_MILLISECONDS", ms(t.CPUSeconds)},
			{"GC_TIME_MILLIS", ms(t.GCTime)},
			{"COUNTERS", counters},
		}
		writeLine(bw, "Task", taskAttrs)
	}
	return bw.Flush()
}

type attr struct{ key, value string }

type counter struct {
	group, name string
	value       int64
}

func ms(seconds float64) string {
	return strconv.FormatInt(int64(math.Round(seconds*1000)), 10)
}

func fromMS(s string) (float64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(v) / 1000, nil
}

func writeLine(w io.Writer, record string, attrs []attr) {
	parts := make([]string, 0, len(attrs)+1)
	parts = append(parts, record)
	for _, a := range attrs {
		parts = append(parts, a.key+"=\""+escape(a.value)+"\"")
	}
	fmt.Fprintf(w, "%s .\n", strings.Join(parts, " "))
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

func counterString(cs []counter) string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "{(%s)(%s)(%d)}", c.group, c.name, c.value)
	}
	return b.String()
}

// parseCounters decodes a {(group)(name)(value)},... string.
func parseCounters(s string) (map[string]int64, error) {
	out := make(map[string]int64)
	if s == "" {
		return out, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if !strings.HasPrefix(item, "{(") || !strings.HasSuffix(item, ")}") {
			return nil, fmt.Errorf("hadooplog: bad counter %q", item)
		}
		inner := item[1 : len(item)-1] // (group)(name)(value)
		fields := strings.Split(strings.Trim(inner, "()"), ")(")
		if len(fields) != 3 {
			return nil, fmt.Errorf("hadooplog: bad counter triple %q", item)
		}
		v, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("hadooplog: bad counter value in %q: %w", item, err)
		}
		out[fields[1]] = v
	}
	return out, nil
}

// parseLine splits a history line into its record type and attributes.
func parseLine(line string) (record string, attrs map[string]string, err error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), " .")
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return line, map[string]string{}, nil
	}
	record = line[:sp]
	attrs = make(map[string]string)
	rest := line[sp+1:]
	i := 0
	for i < len(rest) {
		for i < len(rest) && rest[i] == ' ' {
			i++
		}
		if i >= len(rest) {
			break
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("hadooplog: malformed attribute at %q", rest[i:])
		}
		key := rest[i : i+eq]
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return "", nil, fmt.Errorf("hadooplog: attribute %s lacks quoted value", key)
		}
		i++
		var b strings.Builder
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				b.WriteByte(rest[i+1])
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		attrs[key] = b.String()
	}
	return record, attrs, nil
}

// ReadJob parses one job history stream written by WriteJob. Ganglia
// metrics are absent from the format and left nil.
func ReadJob(r io.Reader) (*mapreduce.JobResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	job := &mapreduce.JobResult{}
	seenJob := false
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		record, attrs, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		switch record {
		case "Meta":
			// version marker, ignored
		case "Job":
			if err := fillJob(job, attrs); err != nil {
				return nil, err
			}
			seenJob = true
		case "Task":
			t, err := fillTask(attrs)
			if err != nil {
				return nil, err
			}
			t.JobID = job.ID
			job.Tasks = append(job.Tasks, t)
		default:
			return nil, fmt.Errorf("hadooplog: unknown record type %q", record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenJob {
		return nil, fmt.Errorf("hadooplog: no Job record found")
	}
	return job, nil
}

func fillJob(job *mapreduce.JobResult, attrs map[string]string) error {
	job.ID = attrs["JOBID"]
	job.Script = attrs["JOBNAME"]
	var err error
	if job.Start, err = fromMS(attrs["SUBMIT_TIME"]); err != nil {
		return fmt.Errorf("hadooplog: SUBMIT_TIME: %w", err)
	}
	if job.Finish, err = fromMS(attrs["FINISH_TIME"]); err != nil {
		return fmt.Errorf("hadooplog: FINISH_TIME: %w", err)
	}
	geti := func(key string) int {
		v, _ := strconv.Atoi(attrs[key])
		return v
	}
	job.NumMapTasks = geti("TOTAL_MAPS")
	job.NumReduceTasks = geti("TOTAL_REDUCES")
	job.Config.NumInstances = geti("NUM_INSTANCES")
	job.Config.BlockSize, _ = strconv.ParseInt(attrs["DFS_BLOCK_SIZE"], 10, 64)
	job.Config.ReduceTasksFactor, _ = strconv.ParseFloat(attrs["REDUCE_TASKS_FACTOR"], 64)
	job.Config.IOSortFactor = geti("IO_SORT_FACTOR")
	job.Config.Seed, _ = strconv.ParseInt(attrs["SIM_SEED"], 10, 64)
	bytes, _ := strconv.ParseInt(attrs["INPUT_BYTES"], 10, 64)
	records, _ := strconv.ParseInt(attrs["INPUT_RECORDS"], 10, 64)
	job.Input = excite.Dataset{Name: attrs["INPUT_NAME"], Bytes: bytes, Records: records}
	return nil
}

func fillTask(attrs map[string]string) (*mapreduce.TaskResult, error) {
	t := &mapreduce.TaskResult{
		ID:          attrs["TASKID"],
		Type:        attrs["TASK_TYPE"],
		Host:        attrs["HOSTNAME"],
		TrackerName: attrs["TRACKER_NAME"],
	}
	var err error
	if t.Start, err = fromMS(attrs["START_TIME"]); err != nil {
		return nil, fmt.Errorf("hadooplog: START_TIME: %w", err)
	}
	if t.Finish, err = fromMS(attrs["FINISH_TIME"]); err != nil {
		return nil, fmt.Errorf("hadooplog: FINISH_TIME: %w", err)
	}
	t.Index, _ = strconv.Atoi(attrs["TASK_INDEX"])
	t.Slot, _ = strconv.Atoi(attrs["SLOT"])
	t.ShuffleTime, _ = fromMS(attrs["SHUFFLE_TIME"])
	t.SortTime, _ = fromMS(attrs["SORT_TIME"])
	t.MergePasses, _ = strconv.Atoi(attrs["MERGE_PASSES"])
	t.CPUSeconds, _ = fromMS(attrs["CPU_MILLISECONDS"])
	t.GCTime, _ = fromMS(attrs["GC_TIME_MILLIS"])

	counters, err := parseCounters(attrs["COUNTERS"])
	if err != nil {
		return nil, err
	}
	t.HDFSBytesRead = counters["HDFS_BYTES_READ"]
	t.HDFSBytesWritten = counters["HDFS_BYTES_WRITTEN"]
	t.FileBytesWritten = counters["FILE_BYTES_WRITTEN"]
	t.InputBytes = counters["INPUT_BYTES"]
	t.InputRecords = counters["INPUT_RECORDS"]
	t.OutputBytes = counters["OUTPUT_BYTES"]
	t.OutputRecords = counters["OUTPUT_RECORDS"]
	t.ShuffleBytes = counters["REDUCE_SHUFFLE_BYTES"]
	t.SpilledRecords = counters["SPILLED_RECORDS"]
	t.CombineInputRecords = counters["COMBINE_INPUT_RECORDS"]
	t.CombineOutputRecords = counters["COMBINE_OUTPUT_RECORDS"]
	return t, nil
}
