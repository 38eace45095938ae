package hadooplog

import (
	"bytes"
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
