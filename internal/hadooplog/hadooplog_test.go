package hadooplog

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"perfxplain/internal/excite"
	"perfxplain/internal/mapreduce"
	"perfxplain/internal/pig"
)

func sampleJob(t *testing.T) *mapreduce.JobResult {
	t.Helper()
	res, err := mapreduce.Run(mapreduce.JobSpec{
		ID:     "job-0001",
		Script: pig.SimpleGroupBy(),
		Input:  excite.DatasetForBytes("excite-x30", 300<<20),
		Config: mapreduce.Config{
			NumInstances: 4, BlockSize: 64 << 20, ReduceTasksFactor: 1.5,
			IOSortFactor: 10, Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRoundTrip(t *testing.T) {
	job := sampleJob(t)
	var buf bytes.Buffer
	if err := WriteJob(&buf, job); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != job.ID || back.Script != job.Script {
		t.Errorf("identity: %q/%q vs %q/%q", back.ID, back.Script, job.ID, job.Script)
	}
	if back.Config != job.Config {
		t.Errorf("config: %+v vs %+v", back.Config, job.Config)
	}
	if back.NumMapTasks != job.NumMapTasks || back.NumReduceTasks != job.NumReduceTasks {
		t.Errorf("task counts differ")
	}
	if math.Abs(back.Duration()-job.Duration()) > 0.002 {
		t.Errorf("duration %v vs %v", back.Duration(), job.Duration())
	}
	if len(back.Tasks) != len(job.Tasks) {
		t.Fatalf("task count %d vs %d", len(back.Tasks), len(job.Tasks))
	}
	for i, bt := range back.Tasks {
		ot := job.Tasks[i]
		if bt.ID != ot.ID || bt.Type != ot.Type || bt.Host != ot.Host ||
			bt.TrackerName != ot.TrackerName {
			t.Fatalf("task %d identity mismatch", i)
		}
		if math.Abs(bt.Duration()-ot.Duration()) > 0.002 {
			t.Errorf("task %d duration %v vs %v", i, bt.Duration(), ot.Duration())
		}
		if bt.InputBytes != ot.InputBytes || bt.OutputRecords != ot.OutputRecords ||
			bt.ShuffleBytes != ot.ShuffleBytes || bt.SpilledRecords != ot.SpilledRecords {
			t.Errorf("task %d counters mismatch", i)
		}
		if bt.JobID != job.ID {
			t.Errorf("task %d JobID = %q", i, bt.JobID)
		}
		if bt.Ganglia != nil {
			t.Errorf("task %d: ganglia should not round-trip through hadoop logs", i)
		}
	}
}

func TestEscaping(t *testing.T) {
	record, attrs, err := parseLine(`Job JOBID="has \"quotes\" and \\backslash" .`)
	if err != nil {
		t.Fatal(err)
	}
	if record != "Job" || attrs["JOBID"] != `has "quotes" and \backslash` {
		t.Errorf("parsed %q", attrs["JOBID"])
	}
	if got := escape(`a"b\c`); got != `a\"b\\c` {
		t.Errorf("escape = %q", got)
	}
}

func TestParseCounters(t *testing.T) {
	cs, err := parseCounters(`{(g1)(A)(10)},{(g2)(B)(20)}`)
	if err != nil {
		t.Fatal(err)
	}
	if cs["A"] != 10 || cs["B"] != 20 {
		t.Errorf("counters = %v", cs)
	}
	if _, err := parseCounters("garbage"); err == nil {
		t.Error("bad counters should error")
	}
	if _, err := parseCounters("{(a)(b)(notanum)}"); err == nil {
		t.Error("non-numeric counter should error")
	}
	empty, err := parseCounters("")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty counters = %v, %v", empty, err)
	}
}

func TestReadJobErrors(t *testing.T) {
	cases := map[string]string{
		"no job record": `Meta VERSION="1" .`,
		"unknown type":  `Weird X="1" .`,
		"bad submit":    `Job JOBID="j" SUBMIT_TIME="xx" FINISH_TIME="1" .`,
		"bad attr":      `Job JOBID .`,
	}
	for name, in := range cases {
		if _, err := ReadJob(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestReadJobRefusesMalformedNumbers pins the numeric attributes: one
// that is present but does not parse is refused, naming the key, rather
// than read as 0; one that is absent, as in a real history file, reads
// as 0.
func TestReadJobRefusesMalformedNumbers(t *testing.T) {
	const job = `Job JOBID="j" SUBMIT_TIME="0" FINISH_TIME="1"`
	const task = "\nTask TASKID=\"t\" START_TIME=\"0\" FINISH_TIME=\"1\""
	for _, key := range []string{
		"TOTAL_MAPS", "TOTAL_REDUCES", "NUM_INSTANCES", "DFS_BLOCK_SIZE",
		"REDUCE_TASKS_FACTOR", "IO_SORT_FACTOR", "SIM_SEED", "INPUT_BYTES",
		"INPUT_RECORDS",
	} {
		in := job + " " + key + `="64MB" .`
		if _, err := ReadJob(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s=\"64MB\": error %v, want one naming the attribute", key, err)
		}
	}
	for _, key := range []string{"TASK_INDEX", "SLOT", "MERGE_PASSES"} {
		in := job + " ." + task + " " + key + `="" .`
		if _, err := ReadJob(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s=\"\": error %v, want one naming the attribute", key, err)
		}
	}
	back, err := ReadJob(strings.NewReader(job + " ." + task + " ."))
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.BlockSize != 0 || back.NumMapTasks != 0 || back.Tasks[0].MergePasses != 0 {
		t.Errorf("absent attributes read as %+v, %+v; want zeros", back.Config, *back.Tasks[0])
	}
}

func TestMapOnlyJobRoundTrip(t *testing.T) {
	res, err := mapreduce.Run(mapreduce.JobSpec{
		ID:     "job-0002",
		Script: pig.SimpleFilter(),
		Input:  excite.DatasetForBytes("excite-x30", 150<<20),
		Config: mapreduce.Config{
			NumInstances: 2, BlockSize: 64 << 20, ReduceTasksFactor: 1,
			IOSortFactor: 10, Seed: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJob(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumReduceTasks != 0 || len(back.Tasks) != len(res.Tasks) {
		t.Errorf("map-only round trip: %d reduces, %d tasks", back.NumReduceTasks, len(back.Tasks))
	}
}

// TestTimesBeyond2To53Refused pins the time range: a time whose
// magnitude passes 2^53 ms no longer reads as a float that writes back
// with the opposite sign — it is refused, naming the attribute — and the
// times at the bound survive a round trip.
func TestTimesBeyond2To53Refused(t *testing.T) {
	for key, line := range map[string]string{
		"SUBMIT_TIME":  `Job SUBMIT_TIME="9223372036854775807" FINISH_TIME="0" .`,
		"FINISH_TIME":  `Job SUBMIT_TIME="0" FINISH_TIME="-9007199254740993" .`,
		"SHUFFLE_TIME": "Job SUBMIT_TIME=\"0\" FINISH_TIME=\"0\" .\nTask START_TIME=\"0\" FINISH_TIME=\"1\" SHUFFLE_TIME=\"9007199254740993\" .",
	} {
		if _, err := ReadJob(strings.NewReader(line)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s past 2^53 ms: error %v, want one naming the attribute", key, err)
		}
	}
	job, err := ReadJob(strings.NewReader(`Job SUBMIT_TIME="-9007199254740992" FINISH_TIME="9007199254740991" .`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJob(&buf, job); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJob(&buf)
	if err != nil || back.Start != job.Start || back.Finish != job.Finish {
		t.Errorf("times at the bound came back as %v, %v (%v); want %v, %v", back.Start, back.Finish, err, job.Start, job.Finish)
	}
}

// jobString renders a job field for field, tasks included — NaN reads
// as NaN on both sides of a comparison.
func jobString(j *mapreduce.JobResult) string {
	c := *j
	c.Tasks = nil
	s := fmt.Sprintf("%+v", c)
	for _, t := range j.Tasks {
		s += fmt.Sprintf("\n%+v", *t)
	}
	return s
}

// FuzzReadJob pins the history reader on untrusted input: it never
// panics, and whatever it accepts writes back to a stream it reads the
// same, field for field — or, for a line already near the length limit,
// the writer refuses it rather than write what the reader cannot read.
func FuzzReadJob(f *testing.F) {
	job := "Meta VERSION=\"1\" .\nJob JOBID=\"j\" SUBMIT_TIME=\"0\" FINISH_TIME=\"5000\" REDUCE_TASKS_FACTOR=\"NaN\" .\n"
	f.Add([]byte(job))
	f.Add([]byte("Job JOBID=\"j\" SUBMIT_TIME=\"9223372036854775807\" FINISH_TIME=\"0\" .\n"))
	f.Add([]byte(job + "Task TASKID=\"t\" START_TIME=\"0\" FINISH_TIME=\"1\" COUNTERS=\"{(g)(n)}\" .\n"))
	f.Add([]byte("Task TASKID=\"t\" START_TIME=\"0\" FINISH_TIME=\"1\" COUNTERS=\"{(g)(INPUT_BYTES)(7)}\" .\n" + job))
	f.Add([]byte("Job SUBMIT_TIME=\"0\" FINISH_TIME=\"1\" JOBNAME=\"unterminated \\\"quote .\n"))
	head := "Job SUBMIT_TIME=\"0\" FINISH_TIME=\"1\" JOBNAME=\""
	pad := maxLine - len(head) - len("\" .\n")
	f.Add([]byte(head + strings.Repeat("x", pad) + "\" .\n"))   // at the cap: read, refused on write
	f.Add([]byte(head + strings.Repeat("x", pad+1) + "\" .\n")) // past it: refused on read
	f.Add([]byte("Job SUBMIT_TIME=\"0\" FINISH_TIME=\"1\" DFS_BLOCK_SIZE=\"64MB\" .\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		job, err := ReadJob(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJob(&buf, job); err != nil {
			if !errors.Is(err, errLongLine) {
				t.Fatalf("writing an accepted job: %v", err)
			}
			return
		}
		back, err := ReadJob(&buf)
		if err != nil {
			t.Fatalf("re-reading a written job: %v", err)
		}
		if got, want := jobString(back), jobString(job); got != want {
			t.Fatalf("round trip changed the job:\n got %s\nwant %s", got, want)
		}
	})
}
