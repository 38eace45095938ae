package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

func mustBase(t *testing.T, seed int64) *Base {
	t.Helper()
	b, err := NewBase(seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// questionList renders the first n questions of every workload cycle the
// benchmark uses, one per line.
func questionList(t *testing.T, b *Base, n int) []byte {
	t.Helper()
	qn, err := NewQuestioner(b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, cycle := range [][]string{{"blocked", "seek", "zone", "gendespite"}, {"blocked"}, {"seek", "zone"}} {
		for i := 0; i < n; i++ {
			q := qn.Question(cycle, i)
			fmt.Fprintf(&buf, "%s|%s|%s|%s|%d|%v\n", q.Template, q.Query, q.Pair[0], q.Pair[1], q.Seed, q.GenDespite)
		}
	}
	return buf.Bytes()
}

// The same seed must give the same bytes in another process, on another
// day: the hashes are pinned. A change to the collector, the jitter or the
// question stream shows here first, and means every recorded benchmark
// result describes different inputs.
func TestSameSeedSameBytes(t *testing.T) {
	const (
		wantCSV       = "0bc7f756e41964198ab9e34e1c45bd12053d08ee6ec8f28c6cd1374225d57dfc"
		wantQuestions = "e0f18ab91cc641a3d2bb276d1ea5890a3e8613030ae4af1adc43dbaefc8da7ff"
	)
	a, b := mustBase(t, 1), mustBase(t, 1)
	csvA, err := a.CSV(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	csvB, err := b.CSV(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA, csvB) {
		t.Fatal("two bases of seed 1 amplify to different CSVs")
	}
	if got := sum(csvA); got != wantCSV {
		t.Errorf("CSV of replicas [0,3) at seed 1: sha256 %s, pinned %s", got, wantCSV)
	}
	qa, qb := questionList(t, a, 50), questionList(t, b, 50)
	if !bytes.Equal(qa, qb) {
		t.Fatal("two questioners of seed 1 give different question lists")
	}
	if got := sum(qa); got != wantQuestions {
		t.Errorf("question list at seed 1: sha256 %s, pinned %s", got, wantQuestions)
	}

	other, err := mustBase(t, 2).CSV(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(csvA, other) {
		t.Error("seeds 1 and 2 amplify to the same CSV")
	}
}

// A replica is the same rows whichever range it is generated in, which
// is what lets a workload append replica K without rebuilding 0..K-1.
func TestReplicaIndependentOfRange(t *testing.T) {
	b := mustBase(t, 3)
	whole := b.Amplify(0, 4)
	one := b.Amplify(2, 3)
	for i, rec := range one.Records {
		want := whole.Records[2*BaseJobs+i]
		if rec.ID != want.ID || fmt.Sprint(rec.Values) != fmt.Sprint(want.Values) {
			t.Fatalf("row %d of replica 2 differs between Amplify(2,3) and Amplify(0,4)", i)
		}
	}
}

func TestReplicaZeroIsTheBaseSweep(t *testing.T) {
	b := mustBase(t, 1)
	amp := b.Amplify(0, 2)
	if amp.Len() != 2*BaseJobs {
		t.Fatalf("Amplify(0,2) has %d rows, want %d", amp.Len(), 2*BaseJobs)
	}
	for i, rec := range b.Log.Records {
		got := amp.Records[i]
		if got.ID != ReplicaID(rec.ID, 0) {
			t.Fatalf("row %d: ID %q, want %q", i, got.ID, ReplicaID(rec.ID, 0))
		}
		if fmt.Sprint(got.Values) != fmt.Sprint(rec.Values) {
			t.Fatalf("row %d of replica 0 differs from the base sweep", i)
		}
	}
}

func TestConfigurationColumnsNeverJittered(t *testing.T) {
	b := mustBase(t, 1)
	amp := b.Amplify(0, 5)
	jittered := 0
	for i, f := range b.Log.Schema.Fields() {
		for row, rec := range amp.Records {
			base := b.Log.Records[row%BaseJobs].Values[i]
			got := rec.Values[i]
			same := got == base
			switch {
			case configColumns[f.Name] || base.Kind != joblog.Numeric:
				if !same {
					t.Fatalf("%s, row %d: %v, base sweep has %v", f.Name, row, got, base)
				}
			case row >= BaseJobs && !same:
				jittered++
			}
		}
	}
	if jittered == 0 {
		t.Error("no numeric cell of replicas 1..4 differs from the base sweep")
	}
	for name := range configColumns {
		if _, ok := b.Log.Schema.Index(name); !ok {
			t.Errorf("configuration column %q is not in the sweep's schema", name)
		}
	}
}

// Every pair the questioner hands out must satisfy its template's
// DESPITE and OBSERVED clauses on the base log, or the server would
// refuse the question.
func TestPairsSatisfyTheirTemplate(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		b := mustBase(t, seed)
		qn, err := NewQuestioner(b)
		if err != nil {
			t.Fatal(err)
		}
		d := features.NewDeriver(b.Log.Schema, features.Level3)
		for _, tm := range Templates {
			q, err := pxql.Parse(tm.Query())
			if err != nil {
				t.Fatal(err)
			}
			pool := qn.Pool(tm.Name)
			if len(pool) < 2 {
				t.Errorf("seed %d, %s: pool of %d pairs", seed, tm.Name, len(pool))
			}
			for _, p := range pool {
				x, y := b.Log.Find(p[0]), b.Log.Find(p[1])
				if x == nil || y == nil {
					t.Fatalf("seed %d, %s: pair %v is not in the base log", seed, tm.Name, p)
				}
				if !q.Despite.EvalPair(d, x, y) {
					t.Errorf("seed %d, %s: pair %v fails DESPITE %s", seed, tm.Name, p, q.Despite)
				}
				if !q.Observed.EvalPair(d, x, y) {
					t.Errorf("seed %d, %s: pair %v fails OBSERVED %s", seed, tm.Name, p, q.Observed)
				}
			}
		}
		for i := 0; i < 40; i++ {
			q := qn.Question([]string{"blocked", "seek", "zone", "gendespite"}, i)
			for _, id := range q.Pair {
				if !strings.HasSuffix(id, "-r0000") {
					t.Fatalf("question %d addresses %q outside replica 0", i, id)
				}
			}
		}
	}
}
