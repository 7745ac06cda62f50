package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// serverBin is a shiftserver built once for the tests that serve HTTP.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "shiftserver")
	out, err := exec.Command("go", "build", "-o", serverBin, "repro/cmd/shiftserver").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building shiftserver: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny shrinks a workload so a run takes a couple of seconds.
func tiny(t *testing.T, workload string) runConfig {
	t.Helper()
	sz := workloads[workload]
	sz.Keys = 50_000
	sz.Queries = 8192
	sz.OpenRate = 8000
	sz.SetupReps = 2
	if sz.FreshProbes > 0 {
		sz.FreshProbes = 3
	}
	if sz.WritesPerVersion > 0 {
		sz.WritesPerVersion = 200
		sz.Cadence = 50 * time.Millisecond
	}
	return runConfig{
		Workload:  workload,
		Size:      sz,
		Seed:      7,
		Measure:   2500 * time.Millisecond,
		ServerBin: serverBin,
		Work:      t.TempDir(),
	}
}

func TestTinyRunsHaveNoFailures(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, name)
			cfg.Traced = traced
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range endToEnd {
				if v, ok := r.Metrics[m]; !traced && (!ok || v.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", name, m, v.Value)
				}
			}
		}
	}
}

func TestCorruptedRankIsReportedAndFailsTheRun(t *testing.T) {
	cfg := tiny(t, "lookup-10m")
	cfg.corruptRank = true
	r, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Wrong == 0 || r.Failed < r.Wrong {
		t.Fatalf("corrupted reference not reported: correct=%v wrong=%d failed=%d", r.Correct, r.Wrong, r.Failed)
	}
	if r.exitCode() == 0 {
		t.Fatal("a run with a wrong answer exits 0")
	}
}

func TestStaticCheckFlagsOneWrongRank(t *testing.T) {
	check := staticCheck([]int32{3, 5, 8, 13})
	if s := check(0, 1, []int{5, 8}); s != statusOK {
		t.Fatalf("correct answers judged %v", s)
	}
	if s := check(0, 1, []int{5, 9}); s != statusWrong {
		t.Fatalf("one wrong rank judged %v", s)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int, scale int64) *hist {
		h := &hist{}
		for i := 1; i <= n; i++ {
			h.add(int64(i) * scale)
		}
		return h
	}
	cases := []struct {
		n     int
		scale int64
		q     float64
		want  int64
		ok    bool
	}{
		{1000, 1, 0.50, 500, true},
		{1000, 1, 0.99, 990, true}, // 991..1000 lie beyond: exactly ten
		{999, 1, 0.99, 0, false},   // only nine beyond
		{100, 1, 0.50, 50, true},
		{100, 1, 0.95, 0, false},
		{20, 1, 0.50, 10, true},
		{10, 1, 0.50, 0, false},
		{0, 1, 0.50, 0, false},
		{1000, 1000, 0.50, 500_000, true}, // bucketed: within 1/64
		{1000, 1000, 0.99, 990_000, true},
	}
	for _, c := range cases {
		v, ok := seq(c.n, c.scale).percentile(c.q)
		if ok != c.ok {
			t.Errorf("percentile(%d samples, %v) ok = %v, want %v", c.n, c.q, ok, c.ok)
			continue
		}
		if d := v - c.want; ok && (d < 0 && -d > c.want/64 || d > c.want/64) {
			t.Errorf("percentile(%d samples ×%d, %v) = %d, want %d within 1/64", c.n, c.scale, c.q, v, c.want)
		}
	}
}

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123_456, 7_000_000_000, 1 << 62} {
		got := valueOf(bucketOf(v))
		if d := got - v; d < 0 && -d > v/64 || d > v/64 {
			t.Errorf("value %d reads back as %d", v, got)
		}
	}
}

func TestMedianF(t *testing.T) {
	if m := medianF([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := medianF([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 40, End: 90},
	}
	sum := summarize(spans)
	if p := sum["parent"]; p.TotalNs != 100 || p.SelfNs != 30 {
		t.Errorf("parent total=%d self=%d, want 100 and 30", p.TotalNs, p.SelfNs)
	}
	if c := sum["child"]; c.Count != 2 || c.SelfNs != 70 {
		t.Errorf("child count=%d self=%d, want 2 and 70", c.Count, c.SelfNs)
	}
}

func TestCheckLoadRefusesMoreThanNproc(t *testing.T) {
	if err := checkLoad(1 << 20); err == nil {
		t.Fatal("a million load goroutines accepted")
	}
	if err := checkLoad(1); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists
// the command reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, command runs %v", names, workloadNames())
	}
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: BENCHMARK.json unit %q, command reports %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, command reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer %v, command reports %v", layers, perLayer)
	}
}
