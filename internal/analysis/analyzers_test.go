package analysis_test

// Each analyzer is pinned by golden fixtures under testdata/src: the
// want comments must all be matched and nothing beyond them may fire,
// so disabling or regressing a check fails its test.

import (
	"testing"

	"perfxplain/internal/analysis"
	"perfxplain/internal/analysis/analysistest"
)

func TestMapIter(t *testing.T) {
	analysistest.Run(t, analysis.MapIter, "fixtures/mapiter")
}

func TestWallRand(t *testing.T) {
	// fixtures/internal/core is on the deterministic path and carries
	// the wants; fixtures/clockutil is off it and must stay silent while
	// still exporting the facts core's diagnostics depend on.
	analysistest.Run(t, analysis.WallRand, "fixtures/internal/core", "fixtures/clockutil")
}

func TestFloatReduce(t *testing.T) {
	analysistest.Run(t, analysis.FloatReduce, "fixtures/floatreduce")
}

func TestShardErr(t *testing.T) {
	analysistest.Run(t, analysis.ShardErr, "fixtures/shardclient", "fixtures/internal/shard")
}

func TestWireCheck(t *testing.T) {
	analysistest.Run(t, analysis.WireCheck, "fixtures/wireok", "fixtures/wirebad")
}

func TestAllRegistry(t *testing.T) {
	all := analysis.All()
	if len(all) != 5 {
		t.Fatalf("expected 5 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
