package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perfxplain"
)

// FuzzExplainRequest drives arbitrary bodies through the request decoder
// and the option merge behind /api/explain and /api/evaluate: every body
// either yields a 4xx or options whose semantic fields are the base's or
// the request's positive values, whose feature level is 1–3, and whose
// runtime knobs are the server's untouched. Nothing panics.
func FuzzExplainRequest(f *testing.F) {
	for _, seed := range []string{
		`{"query": "OBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM", "find": true}`,
		`{"query": "q", "pair": ["a", "b"], "width": 2, "despite_width": 4, "level": 2, "seed": -9, "max_pairs": 100, "target": "x", "timeout_ms": 5}`,
		`{"query": "q", "level": 4}`,
		`{"query": "q", "width": -3, "level": -1, "max_pairs": -7}`,
		`{"query": "q", "width": 1e400}`,
		`{"query": "q", "width": 9223372036854775808}`,
		`{"query": "q", "width": 2.5}`,
		`{"query": 7}`,
		`{"query": ["q"]}`,
		`{"pair": "a,b"}`,
		`{"find": "yes"}`,
		`{"query": "q", "shards": 4}`,
		`{"query": "q"} trailing`,
		`{"query": "q", "level": 2`,
		`{"query": "`,
		`[]`,
		`null`,
		``,
		`{"query": "` + strings.Repeat("x", maxQueryBytes) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	pool, err := perfxplain.NewWorkerPool(perfxplain.PoolOptions{Command: []string{"unused"}})
	if err != nil {
		f.Fatal(err)
	}
	defer pool.Close()
	base := perfxplain.Options{Width: 3, DespiteWidth: 3, FeatureLevel: 3, Seed: 1, Parallelism: 2, Shards: 4, SharedPool: pool}
	s := NewServer(Config{Explain: base})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/api/explain", bytes.NewReader(body))
		var req ExplainRequest
		err := decodeRequest(httptest.NewRecorder(), r, &req)
		var opt perfxplain.Options
		if err == nil {
			opt, err = s.mergeOptions(&req)
		}
		if err != nil {
			if code := httpStatus(err); code < 400 || code >= 500 {
				t.Fatalf("%q: status %d for %v, want a 4xx", body, code, err)
			}
			return
		}
		inherits := func(name string, got, baseV, reqV int) {
			if got != baseV && got != reqV || got <= 0 {
				t.Errorf("%q: %s = %d from base %d and request %d", body, name, got, baseV, reqV)
			}
		}
		inherits("width", opt.Width, base.Width, req.Width)
		inherits("despite width", opt.DespiteWidth, base.DespiteWidth, max(req.DespiteWidth, req.Width))
		inherits("level", opt.FeatureLevel, base.FeatureLevel, req.Level)
		if opt.FeatureLevel > 3 {
			t.Errorf("%q: level %d accepted", body, opt.FeatureLevel)
		}
		if opt.MaxPairs != base.MaxPairs && opt.MaxPairs != req.MaxPairs || opt.MaxPairs < 0 {
			t.Errorf("%q: max pairs %d", body, opt.MaxPairs)
		}
		if opt.Seed != base.Seed && opt.Seed != req.Seed {
			t.Errorf("%q: seed %d", body, opt.Seed)
		}
		if opt.Target != base.Target && opt.Target != req.Target {
			t.Errorf("%q: target %q", body, opt.Target)
		}
		if opt.SampleSize != base.SampleSize || opt.Parallelism != base.Parallelism ||
			opt.Shards != base.Shards || opt.SharedPool != base.SharedPool {
			t.Errorf("%q: runtime knobs moved: %+v", body, opt)
		}
	})
}
