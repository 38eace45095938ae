package ganglia

import (
	"math"
	"testing"
)

func TestMetricsGetCoversNames(t *testing.T) {
	m := Metrics{
		CPUUser: 1, CPUIdle: 2, LoadOne: 3, LoadFive: 4, ProcTotal: 5,
		BytesIn: 6, BytesOut: 7, PktsIn: 8, PktsOut: 9, MemFree: 10, BootTime: 11,
	}
	seen := make(map[float64]bool)
	for _, name := range Names {
		v, err := m.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if seen[v] {
			t.Errorf("metric %q maps to duplicate field value %v", name, v)
		}
		seen[v] = true
	}
	if _, err := m.Get("bogus"); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestRecordOrdering(t *testing.T) {
	c := NewCollector(0)
	if c.Interval != DefaultInterval {
		t.Errorf("default interval = %v", c.Interval)
	}
	if err := c.Record("h1", 0, Metrics{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("h1", 5, Metrics{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("h1", 3, Metrics{}); err == nil {
		t.Error("out-of-order sample should error")
	}
	if err := c.Record("h2", 1, Metrics{}); err != nil {
		t.Error("other hosts are independent")
	}
	if len(c.series) != 2 || len(c.series["h1"]) != 2 {
		t.Errorf("series = %v", c.series)
	}
}

func TestAverageWindow(t *testing.T) {
	c := NewCollector(5)
	for i := 0; i < 10; i++ {
		_ = c.Record("h", float64(i*5), Metrics{CPUUser: float64(i * 10)})
	}
	// Window [10, 20] covers samples at 10, 15, 20 → cpu 20, 30, 40.
	m, ok := c.Average("h", 10, 20)
	if !ok {
		t.Fatal("expected samples")
	}
	if math.Abs(m.CPUUser-30) > 1e-9 {
		t.Errorf("avg cpu = %v, want 30", m.CPUUser)
	}
}

func TestAverageShortTaskUsesNearestSample(t *testing.T) {
	c := NewCollector(5)
	_ = c.Record("h", 0, Metrics{CPUUser: 10})
	_ = c.Record("h", 5, Metrics{CPUUser: 90})
	// Window (5.5, 6.5) covers no sample; the nearest to midpoint 6 is t=5.
	m, ok := c.Average("h", 5.5, 6.5)
	if !ok || m.CPUUser != 90 {
		t.Errorf("short window avg = %v, %v; want nearest sample 90", m.CPUUser, ok)
	}
}

func TestAverageUnknownHost(t *testing.T) {
	c := NewCollector(5)
	if _, ok := c.Average("ghost", 0, 10); ok {
		t.Error("unknown host should report !ok")
	}
	if _, ok := c.AverageMap("ghost", 0, 10); ok {
		t.Error("unknown host AverageMap should report !ok")
	}
}

func TestAverageMapPrefixes(t *testing.T) {
	c := NewCollector(5)
	_ = c.Record("h", 0, Metrics{CPUUser: 42, MemFree: 1e9})
	m, ok := c.AverageMap("h", 0, 1)
	if !ok {
		t.Fatal("expected ok")
	}
	if m["avg_cpu_user"] != 42 {
		t.Errorf("avg_cpu_user = %v", m["avg_cpu_user"])
	}
	if m["avg_mem_free"] != 1e9 {
		t.Errorf("avg_mem_free = %v", m["avg_mem_free"])
	}
	if len(m) != len(Names) {
		t.Errorf("AverageMap has %d entries, want %d", len(m), len(Names))
	}
}

func TestMeanOfMaps(t *testing.T) {
	got := MeanOfMaps([]map[string]float64{
		{"a": 1, "b": 10},
		{"a": 3},
	})
	if got["a"] != 2 {
		t.Errorf("a = %v, want 2", got["a"])
	}
	if got["b"] != 10 {
		t.Errorf("b = %v, want 10 (averaged over maps that have it)", got["b"])
	}
	if len(MeanOfMaps(nil)) != 0 {
		t.Error("empty input should give empty map")
	}
}
