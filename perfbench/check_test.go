package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// put and get build history records by hand: times are arbitrary ticks.
func put(key int32, ver uint64, issue, ack int64) opRec {
	return opRec{key: key, put: true, ok: true, ver: ver, issue: issue, finish: ack}
}

func get(key int32, ver uint64, issue, finish int64) opRec {
	return opRec{key: key, ok: true, ver: ver, issue: issue, finish: finish}
}

func TestCheckHistory(t *testing.T) {
	prefill := []opRec{put(0, 1, 0, 1), put(1, 1, 0, 1)}
	cases := []struct {
		name string
		recs []opRec
		want string // substring of the one expected violation; "" = clean
	}{
		{"latest version", []opRec{put(0, 2, 10, 20), get(0, 2, 30, 40)}, ""},
		{"read concurrent with the put may see either version",
			[]opRec{put(0, 2, 10, 50), get(0, 1, 20, 30), get(0, 2, 25, 35)}, ""},
		{"stale read", []opRec{put(0, 2, 10, 20), get(0, 1, 30, 40)}, "stale read of version 1"},
		{"stale read two versions back",
			[]opRec{put(0, 2, 10, 20), put(0, 3, 21, 25), get(0, 2, 30, 40)}, "stale read of version 2"},
		{"never issued", []opRec{get(0, 5, 30, 40)}, "no PUT issued"},
		{"version of another key", []opRec{put(1, 2, 10, 20), get(0, 2, 30, 40)}, "no PUT issued"},
		{"read from the future", []opRec{get(0, 2, 10, 20), put(0, 2, 30, 40)}, "before its PUT was issued"},
		{"failed put may still be visible",
			[]opRec{{key: 0, put: true, ver: 2, issue: 10, finish: 20}, get(0, 2, 30, 40)}, ""},
		{"failed put supersedes nothing",
			[]opRec{{key: 0, put: true, ver: 2, issue: 10, finish: 20}, get(0, 1, 30, 40)}, ""},
		{"failed get is not checked", []opRec{{key: 0, ver: 9, issue: 30, finish: 40}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := checkHistory(append(append([]opRec(nil), prefill...), tc.recs...), 2, 10)
			switch {
			case tc.want == "" && len(bad) != 0:
				t.Fatalf("clean history flagged: %v", bad)
			case tc.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.want)):
				t.Fatalf("got %v, want one violation containing %q", bad, tc.want)
			}
		})
	}
}

func TestCheckValue(t *testing.T) {
	const size = 4096
	val := make([]byte, size)
	scratch := make([]byte, size)
	fillValue(val, "k00007", 42)
	if ver, err := checkValue(val, "k00007", size, scratch); err != nil || ver != 42 {
		t.Fatalf("intact value: version %d, err %v", ver, err)
	}
	torn := append([]byte(nil), val...)
	copy(torn[size/2:], make([]byte, size/2))
	altered := append([]byte(nil), val...)
	altered[1234] ^= 0x10
	bumped := append([]byte(nil), val...)
	bumped[0]++ // claims version 43 over version 42's bytes
	for name, b := range map[string][]byte{
		"torn":          torn,
		"altered":       altered,
		"wrong version": bumped,
		"truncated":     val[:size-1],
	} {
		if _, err := checkValue(b, "k00007", size, scratch); err == nil {
			t.Errorf("%s value passed the check", name)
		}
	}
	if _, err := checkValue(val, "k00008", size, scratch); err == nil {
		t.Error("another key's value passed the check")
	}
}

// TestMediaBytesHandCount: three 4 KiB PUTs, each padded to one 16 KiB
// chunk and stored on 3 replicas, program 9 fPages of 16 KiB on a flash
// fleet, or write 3 x 3 x 4 oPages of 4 KiB through a RAM fleet's devices:
// 12 media bytes per user byte either way.
func TestMediaBytesHandCount(t *testing.T) {
	cases := []struct {
		name string
		kind fleetKind
		want uint64
	}{
		{"durable flash", fleetDurable, 9 * 16384},
		{"worn flash", fleetWorn, 9 * 16384},
		{"RAM", fleetMem, 3 * 3 * 4 * 4096},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := newFleet(tc.kind, nil)
			if err != nil {
				t.Fatal(err)
			}
			m0 := f.mediaBytes()
			val := make([]byte, 4096)
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("k%05d", i)
				fillValue(val, name, 1)
				if err := (direct{f.c}).Put(context.Background(), name, val); err != nil {
					t.Fatal(err)
				}
			}
			got := f.mediaBytes() - m0
			if got != tc.want {
				t.Fatalf("media bytes for three PUTs: %d, want %d", got, tc.want)
			}
			if r := perUserByte(got, 3*4096); r != 12 {
				t.Fatalf("%v media bytes per user byte, want 12", r)
			}
		})
	}
}

// TestQuartiles matches Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, tc := range cases {
		q1, m, q3 := quartiles(tc.data)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "salamander/internal/difs.(*Cluster).get", "main.runLoad.func1"}, "difs"},
		{[]string{"salamander/internal/ecc.(*Code).Decode", "salamander/internal/core.(*Device).Read"}, "ecc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "salamander/internal/wire.AppendFrame"}, "runtime"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "salamander/internal/salnet.(*srvConn).writerLoop"}, "salnet"},
		{[]string{"main.fillValue", "main.runLoad.func1"}, "harness"},
		{[]string{"salamander/internal/telemetry.(*Counter).Inc"}, "other"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, tc := range cases {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestBenchmarkDescription keeps BENCHMARK.json in step with the code: the
// same workloads, and the per-layer metrics the traced run reports.
func TestBenchmarkDescription(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads described, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: described %q (%q), defined %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics described, %d reported", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: described %s (%s), reported %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
