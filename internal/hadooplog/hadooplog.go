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
	"errors"
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
	if err := writeLine(bw, "Job", jobAttrs); err != nil {
		return err
	}

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
		if err := writeLine(bw, "Task", taskAttrs); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type attr struct{ key, value string }

type counter struct {
	group, name string
	value       int64
}

// maxMS bounds the magnitude of a time in milliseconds: every integer
// up to 2^53 is exact in the float64 seconds a result holds, and past it
// the conversion back to milliseconds overflows.
const maxMS = 1 << 53

// ms renders seconds as the integer milliseconds history files hold.
// Rounding seconds·1000 is exact for the times jobs take; toward maxMS it
// can land a millisecond or two off every integer that reads back as the
// same seconds, so the neighbours are tried too: a time read from a
// history file is written back as one that reads the same.
func ms(seconds float64) string {
	r := int64(math.Round(seconds * 1000))
	for _, d := range []int64{0, -1, 1, -2, 2} {
		if float64(r+d)/1000 == seconds {
			return strconv.FormatInt(r+d, 10)
		}
	}
	return strconv.FormatInt(r, 10)
}

// fromMS parses attribute key's integer milliseconds into seconds.
func fromMS(attrs map[string]string, key string) (float64, error) {
	v, err := strconv.ParseInt(attrs[key], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("hadooplog: %s: %w", key, err)
	}
	if v > maxMS || v < -maxMS {
		return 0, fmt.Errorf("hadooplog: %s: %d ms is beyond ±2^53 ms", key, v)
	}
	return float64(v) / 1000, nil
}

// maxLine is the longest line ReadJob accepts, newline included.
const maxLine = 1 << 20

// errLongLine is WriteJob's refusal to write a line ReadJob could not
// read back.
var errLongLine = errors.New("hadooplog: line longer than ReadJob accepts")

func writeLine(w io.Writer, record string, attrs []attr) error {
	parts := make([]string, 0, len(attrs)+1)
	parts = append(parts, record)
	for _, a := range attrs {
		parts = append(parts, a.key+"=\""+escape(a.value)+"\"")
	}
	line := strings.Join(parts, " ") + " .\n"
	if len(line) > maxLine {
		return fmt.Errorf("%w: a %d-byte %s line, limit %d", errLongLine, len(line), record, maxLine)
	}
	_, err := io.WriteString(w, line)
	return err
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
// metrics are absent from the format and left nil. A numeric attribute
// that is present must parse, or ReadJob fails naming it; one that is
// absent reads as zero.
func ReadJob(r io.Reader) (*mapreduce.JobResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLine), maxLine)
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
	// Tasks may precede the Job record; they all belong to it.
	for _, t := range job.Tasks {
		t.JobID = job.ID
	}
	return job, nil
}

func fillJob(job *mapreduce.JobResult, attrs map[string]string) error {
	job.ID = attrs["JOBID"]
	job.Script = attrs["JOBNAME"]
	var err error
	if job.Start, err = fromMS(attrs, "SUBMIT_TIME"); err != nil {
		return err
	}
	if job.Finish, err = fromMS(attrs, "FINISH_TIME"); err != nil {
		return err
	}
	r := attrReader{attrs: attrs}
	job.NumMapTasks = r.int("TOTAL_MAPS")
	job.NumReduceTasks = r.int("TOTAL_REDUCES")
	job.Config.NumInstances = r.int("NUM_INSTANCES")
	job.Config.BlockSize = r.int64("DFS_BLOCK_SIZE")
	job.Config.ReduceTasksFactor = r.float("REDUCE_TASKS_FACTOR")
	job.Config.IOSortFactor = r.int("IO_SORT_FACTOR")
	job.Config.Seed = r.int64("SIM_SEED")
	job.Input = excite.Dataset{
		Name:    attrs["INPUT_NAME"],
		Bytes:   r.int64("INPUT_BYTES"),
		Records: r.int64("INPUT_RECORDS"),
	}
	return r.err
}

// attrReader parses numeric attributes and keeps the first error. A
// missing attribute reads as zero, since real history files lack the
// simulator's keys; one that is present must parse.
type attrReader struct {
	attrs map[string]string
	err   error
}

func (r *attrReader) parse(key string, parse func(string) error) {
	s, ok := r.attrs[key]
	if !ok || r.err != nil {
		return
	}
	if err := parse(s); err != nil {
		r.err = fmt.Errorf("hadooplog: %s: %w", key, err)
	}
}

func (r *attrReader) int(key string) (v int) {
	r.parse(key, func(s string) (err error) { v, err = strconv.Atoi(s); return err })
	return v
}

func (r *attrReader) int64(key string) (v int64) {
	r.parse(key, func(s string) (err error) { v, err = strconv.ParseInt(s, 10, 64); return err })
	return v
}

func (r *attrReader) float(key string) (v float64) {
	r.parse(key, func(s string) (err error) { v, err = strconv.ParseFloat(s, 64); return err })
	return v
}

func fillTask(attrs map[string]string) (*mapreduce.TaskResult, error) {
	t := &mapreduce.TaskResult{
		ID:          attrs["TASKID"],
		Type:        attrs["TASK_TYPE"],
		Host:        attrs["HOSTNAME"],
		TrackerName: attrs["TRACKER_NAME"],
	}
	// The first two times are required; the others may be absent.
	for i, f := range []struct {
		key string
		dst *float64
	}{
		{"START_TIME", &t.Start},
		{"FINISH_TIME", &t.Finish},
		{"SHUFFLE_TIME", &t.ShuffleTime},
		{"SORT_TIME", &t.SortTime},
		{"CPU_MILLISECONDS", &t.CPUSeconds},
		{"GC_TIME_MILLIS", &t.GCTime},
	} {
		if _, ok := attrs[f.key]; !ok && i >= 2 {
			continue
		}
		var err error
		if *f.dst, err = fromMS(attrs, f.key); err != nil {
			return nil, err
		}
	}
	r := attrReader{attrs: attrs}
	t.Index = r.int("TASK_INDEX")
	t.Slot = r.int("SLOT")
	t.MergePasses = r.int("MERGE_PASSES")
	if r.err != nil {
		return nil, r.err
	}

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
