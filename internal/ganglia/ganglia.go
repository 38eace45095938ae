// Package ganglia reproduces the monitoring substrate of the paper's
// Section 6.1: a Ganglia-style collector sampling per-instance system
// metrics every five seconds of virtual time, with the averaging rules
// PerfXplain applies — for a task, the mean of each metric over the
// samples taken while the task executed; for a job, the mean over its
// tasks.
package ganglia

import (
	"fmt"
	"sort"
)

// DefaultInterval is the paper's 5-second sampling cadence.
const DefaultInterval = 5.0

// Metrics is one instantaneous reading of an instance. Field meanings and
// names follow the Ganglia metric catalogue the paper cites (boottime,
// bytes_in, bytes_out, cpu_idle, ...).
type Metrics struct {
	CPUUser   float64 // percent of CPU in user time
	CPUIdle   float64 // percent idle
	LoadOne   float64 // 1-minute load average
	LoadFive  float64 // 5-minute load average
	ProcTotal float64 // total processes
	BytesIn   float64 // network bytes/s in
	BytesOut  float64 // network bytes/s out
	PktsIn    float64 // packets/s in
	PktsOut   float64 // packets/s out
	MemFree   float64 // free memory, bytes
	BootTime  float64 // instance boot timestamp (constant per instance)
}

// Names lists the metric names in canonical order; job/task features are
// these names prefixed with "avg_".
var Names = []string{
	"cpu_user", "cpu_idle", "load_one", "load_five", "proc_total",
	"bytes_in", "bytes_out", "pkts_in", "pkts_out", "mem_free", "boottime",
}

// Get returns a metric by name.
func (m Metrics) Get(name string) (float64, error) {
	switch name {
	case "cpu_user":
		return m.CPUUser, nil
	case "cpu_idle":
		return m.CPUIdle, nil
	case "load_one":
		return m.LoadOne, nil
	case "load_five":
		return m.LoadFive, nil
	case "proc_total":
		return m.ProcTotal, nil
	case "bytes_in":
		return m.BytesIn, nil
	case "bytes_out":
		return m.BytesOut, nil
	case "pkts_in":
		return m.PktsIn, nil
	case "pkts_out":
		return m.PktsOut, nil
	case "mem_free":
		return m.MemFree, nil
	case "boottime":
		return m.BootTime, nil
	default:
		return 0, fmt.Errorf("ganglia: unknown metric %q", name)
	}
}

func (m *Metrics) add(o Metrics) {
	m.CPUUser += o.CPUUser
	m.CPUIdle += o.CPUIdle
	m.LoadOne += o.LoadOne
	m.LoadFive += o.LoadFive
	m.ProcTotal += o.ProcTotal
	m.BytesIn += o.BytesIn
	m.BytesOut += o.BytesOut
	m.PktsIn += o.PktsIn
	m.PktsOut += o.PktsOut
	m.MemFree += o.MemFree
	m.BootTime += o.BootTime
}

func (m *Metrics) scale(f float64) {
	m.CPUUser *= f
	m.CPUIdle *= f
	m.LoadOne *= f
	m.LoadFive *= f
	m.ProcTotal *= f
	m.BytesIn *= f
	m.BytesOut *= f
	m.PktsIn *= f
	m.PktsOut *= f
	m.MemFree *= f
	m.BootTime *= f
}

// Sample is a timestamped reading.
type Sample struct {
	T float64
	M Metrics
}

// Collector stores per-host time series. Samples must be recorded in
// non-decreasing time order per host (the engine's tick loop guarantees
// this); Record rejects violations so bugs surface early.
type Collector struct {
	series map[string][]Sample
}

// NewCollector returns an empty collector. The engine drives its ticks,
// every DefaultInterval seconds of virtual time.
func NewCollector() *Collector {
	return &Collector{series: make(map[string][]Sample)}
}

// Record appends a sample for the host.
func (c *Collector) Record(host string, t float64, m Metrics) error {
	s := c.series[host]
	if len(s) > 0 && s[len(s)-1].T > t {
		return fmt.Errorf("ganglia: out-of-order sample for %s: %v after %v",
			host, t, s[len(s)-1].T)
	}
	c.series[host] = append(s, Sample{T: t, M: m})
	return nil
}

// Average returns the mean metrics of host over the window [t0, t1].
// This is the paper's per-task averaging: all samples taken while the
// task executed. Tasks shorter than the sampling interval may cover no
// sample; in that case the nearest sample to the window's midpoint is
// used, mirroring how a 5s-granularity monitor would attribute such a
// task's window. ok is false only when the host has no samples at all.
func (c *Collector) Average(host string, t0, t1 float64) (Metrics, bool) {
	s := c.series[host]
	if len(s) == 0 {
		return Metrics{}, false
	}
	var sum Metrics
	n := 0
	// The series is time-sorted: binary-search the window start.
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= t0 })
	for i := lo; i < len(s) && s[i].T <= t1; i++ {
		sum.add(s[i].M)
		n++
	}
	if n > 0 {
		sum.scale(1 / float64(n))
		return sum, true
	}
	mid := (t0 + t1) / 2
	best := 0
	for i := 1; i < len(s); i++ {
		if abs(s[i].T-mid) < abs(s[best].T-mid) {
			best = i
		}
	}
	return s[best].M, true
}

// AverageMap is Average rendered as a name → value map with the "avg_"
// feature prefix applied, ready to merge into a feature record.
func (c *Collector) AverageMap(host string, t0, t1 float64) (map[string]float64, bool) {
	m, ok := c.Average(host, t0, t1)
	if !ok {
		return nil, false
	}
	out := make(map[string]float64, len(Names))
	for _, name := range Names {
		v, err := m.Get(name)
		if err != nil {
			panic(err) // Names and Get are maintained together
		}
		out["avg_"+name] = v
	}
	return out, true
}

// MeanOfMaps averages a set of per-task metric maps into a job-level map,
// the paper's percolation rule. Keys missing from some maps are averaged
// over the maps that have them.
func MeanOfMaps(maps []map[string]float64) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, m := range maps {
		// Each key accumulates into its own slot and the per-key addition
		// order follows the maps slice, not this map's iteration.
		//pxql:orderinvariant
		for k, v := range m {
			sums[k] += v
			counts[k]++
		}
	}
	out := make(map[string]float64, len(sums))
	//pxql:orderinvariant — map-to-map transform, no cross-key interaction
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
