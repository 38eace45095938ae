package pig

import (
	"math"
	"testing"

	"perfxplain/internal/excite"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"simple-filter.pig", "simple-groupby.pig"} {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("mystery.pig"); err == nil {
		t.Error("unknown script should error")
	}
	if len(Scripts()) != 2 {
		t.Errorf("Scripts() returned %d scripts", len(Scripts()))
	}
}

func TestSimpleFilterMap(t *testing.T) {
	s := SimpleFilter()
	if !s.MapOnly || s.Combiner {
		t.Error("simple-filter should be map-only, without a combiner")
	}
	d := excite.DatasetForBytes("in", 1<<30)
	if got, want := s.MapRecordSelectivity(d), 1-d.URLFraction; got != want {
		t.Errorf("filter keeps %v of records, want the non-URL share %v", got, want)
	}
	if out := s.ReduceOutputBytes(d); out != 0 {
		t.Errorf("map-only reduce output = %d", out)
	}
}

func TestSimpleGroupByMapReduce(t *testing.T) {
	s := SimpleGroupBy()
	if s.MapOnly || !s.Combiner {
		t.Fatal("simple-groupby should have a combiner and a reduce phase")
	}
	// One (user, count) pair per distinct user.
	d := excite.DatasetForBytes("in", 1<<30)
	if out := s.ReduceOutputBytes(d); out != d.DistinctUsers*14 {
		t.Errorf("reduce output = %d bytes for %d users", out, d.DistinctUsers)
	}
}

// Over generated data, the filter's selectivity is the share of lines
// whose query is not a bare URL, and the groupby's stays in range.
func TestScriptsAgainstGeneratedData(t *testing.T) {
	recs := excite.Generate(excite.Spec{Records: 2000, Seed: 21})
	lines := excite.Lines(recs)

	kept := 0
	for _, r := range recs {
		if !excite.IsURLQuery(r.Query) {
			kept++
		}
	}
	d := excite.DatasetForLines("t", lines)
	filter := SimpleFilter()
	if got := filter.MapRecordSelectivity(d) * float64(len(lines)); math.Abs(got-float64(kept)) > 1e-6 {
		t.Errorf("filter keeps %v records, want %d", got, kept)
	}
	sel := filter.MapByteSelectivity(d)
	if sel < 0.7 || sel > 0.99 {
		t.Errorf("filter byte selectivity = %v", sel)
	}
	gsel := SimpleGroupBy().MapByteSelectivity(d)
	if gsel <= 0 || gsel > 1 {
		t.Errorf("groupby byte selectivity = %v", gsel)
	}
}

func TestCostProfilesPositive(t *testing.T) {
	d := excite.DatasetForBytes("in", 1<<30)
	for _, s := range Scripts() {
		if s.MapCPUPerMB <= 0 {
			t.Errorf("%s: MapCPUPerMB = %v", s.Name, s.MapCPUPerMB)
		}
		if sel := s.MapByteSelectivity(d); sel <= 0 || sel > 1 {
			t.Errorf("%s: byte selectivity = %v", s.Name, sel)
		}
		if sel := s.MapRecordSelectivity(d); sel <= 0 || sel > 1 {
			t.Errorf("%s: record selectivity = %v", s.Name, sel)
		}
		if out := s.ReduceOutputBytes(d); out < 0 {
			t.Errorf("%s: reduce output = %v", s.Name, out)
		}
	}
	// Degenerate empty dataset must not divide by zero or leave range.
	empty := excite.Dataset{}
	for _, s := range Scripts() {
		if sel := s.MapByteSelectivity(empty); sel < 0 || sel > 1 {
			t.Errorf("%s: empty dataset byte selectivity = %v", s.Name, sel)
		}
		if sel := s.MapRecordSelectivity(empty); sel < 0 || sel > 1 {
			t.Errorf("%s: empty dataset record selectivity = %v", s.Name, sel)
		}
	}
}

func TestGroupByCombinerReducesVolume(t *testing.T) {
	// The combiner collapses per-split duplicates: at paper scale the
	// groupby's map emits fewer records and bytes than it reads.
	s := SimpleGroupBy()
	d := excite.DatasetForBytes("in", 1300<<20)
	if sel := s.MapRecordSelectivity(d); sel >= 1 {
		t.Errorf("record selectivity = %v, want < 1", sel)
	}
	if sel := s.MapByteSelectivity(d); sel >= 1 {
		t.Errorf("byte selectivity = %v, want < 1", sel)
	}
}
