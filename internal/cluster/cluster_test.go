package cluster

import (
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Instances: 0}); err == nil {
		t.Error("zero instances should error")
	}
	cl, err := New(Config{Instances: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Instances) != 16 {
		t.Errorf("Size = %d", len(cl.Instances))
	}
}

func TestInstanceDefaults(t *testing.T) {
	cl, _ := New(Config{Instances: 3, Seed: 2})
	seen := make(map[string]bool)
	for _, inst := range cl.Instances {
		if inst.Cores != DefaultCores || inst.MapSlots != DefaultMapSlots ||
			inst.ReduceSlots != DefaultReduceSlots {
			t.Errorf("instance %d has wrong slots: %+v", inst.Index, inst)
		}
		if inst.SpeedFactor < 0.7 || inst.SpeedFactor > 1.3 {
			t.Errorf("speed factor out of range: %v", inst.SpeedFactor)
		}
		if seen[inst.Hostname] {
			t.Errorf("duplicate hostname %q", inst.Hostname)
		}
		seen[inst.Hostname] = true
		if inst.BootTime <= 0 {
			t.Errorf("boot time = %v", inst.BootTime)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(Config{Instances: 8, Seed: 7})
	b, _ := New(Config{Instances: 8, Seed: 7})
	for i := range a.Instances {
		if a.Instances[i].SpeedFactor != b.Instances[i].SpeedFactor {
			t.Fatal("speed factors differ across identical configs")
		}
		for _, tm := range []float64{0, 10, 100, 1000, 45} {
			if a.Instances[i].BgLoad(tm) != b.Instances[i].BgLoad(tm) {
				t.Fatal("bg load differs across identical configs")
			}
		}
	}
	c, _ := New(Config{Instances: 8, Seed: 8})
	same := true
	for i := range a.Instances {
		if a.Instances[i].SpeedFactor != c.Instances[i].SpeedFactor {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical clusters")
	}
}

func TestBgLoadProperties(t *testing.T) {
	cl, _ := New(Config{Instances: 2, Seed: 3})
	inst := cl.Instances[0]
	// Piecewise constant within an interval.
	if inst.BgLoad(31) != inst.BgLoad(59) {
		t.Error("bg load not constant within an interval")
	}
	// Order-independent queries: ask far future first, then past.
	future := inst.BgLoad(10 * BgChangeInterval)
	past := inst.BgLoad(0)
	if inst.BgLoad(10*BgChangeInterval) != future || inst.BgLoad(0) != past {
		t.Error("bg load queries not stable")
	}
	// Bounded and non-negative over a long horizon.
	for tm := 0.0; tm < 3600; tm += 15 {
		v := inst.BgLoad(tm)
		if v < 0 || v > 4 {
			t.Fatalf("bg load %v out of [0,4] at t=%v", v, tm)
		}
	}
	// Negative time clamps to zero.
	if inst.BgLoad(-5) != inst.BgLoad(0) {
		t.Error("negative time should clamp")
	}
}

func TestBgLoadVaries(t *testing.T) {
	cl, _ := New(Config{Instances: 1, Seed: 11})
	inst := cl.Instances[0]
	distinct := make(map[float64]bool)
	for i := 0; i < 50; i++ {
		distinct[inst.BgLoad(float64(i)*BgChangeInterval)] = true
	}
	if len(distinct) < 5 {
		t.Errorf("bg load nearly constant: %d distinct values in 50 intervals", len(distinct))
	}
}
