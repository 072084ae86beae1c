package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestEncodeDeterministicSortsKeys(t *testing.T) {
	v := map[string]any{"zeta": 1, "alpha": 2, "mid": map[string]any{"b": 1, "a": 2}}
	var b1, b2 bytes.Buffer
	if err := EncodeDeterministic(&b1, v); err != nil {
		t.Fatal(err)
	}
	if err := EncodeDeterministic(&b2, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two encodings differ")
	}
	s := b1.String()
	if strings.Index(s, `"alpha"`) > strings.Index(s, `"zeta"`) {
		t.Fatalf("keys not sorted:\n%s", s)
	}
}

func TestEncodeDeterministicFloats(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeDeterministic(&buf, map[string]any{
		"noisy": 0.1 + 0.2, // 0.30000000000000004 under shortest-repr
		"big":   3548510.123456789,
		"int":   int64(9007199254740993), // > 2^53, must stay exact
	})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"noisy": 0.3`) || strings.Contains(s, "0.30000000000000004") {
		t.Fatalf("float not normalized to %%.6g:\n%s", s)
	}
	if !strings.Contains(s, "9007199254740993") {
		t.Fatalf("large integer lost precision:\n%s", s)
	}
	if !strings.Contains(s, "3.54851e+06") {
		t.Fatalf("big float not in %%.6g form:\n%s", s)
	}
}

// TestGoldenRunSchema pins the facade.run/v1 wire format byte for byte.
// If it fails because the format intentionally changed, bump ReportSchema
// and regenerate with -update.
func TestGoldenRunSchema(t *testing.T) {
	rep := NewRunReport("table2/PR-8g", "P'")
	rep.Config = map[string]any{"workers": 4, "heap_bytes": int64(24 << 20)}
	rep.WallNanos = 81000000
	rep.Metrics = map[string]float64{
		"et_s":            0.081,
		"throughput_eps":  2908750.4567,
		"gc_ms":           0,
		"noise_sensitive": 0.1 + 0.2,
	}
	rep.ClassAllocs = map[string]int64{"Vertex": 256000, "[]Edge": 20}
	rep.Obs = Snapshot{
		Counters: map[string]int64{CtrInstructions: 123456},
		Gauges:   map[string]int64{GaugePagesLive: 30},
	}
	var buf bytes.Buffer
	if err := EncodeReports(&buf, []RunReport{rep}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_run.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("facade.run/v1 encoding changed:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// concNode is encoded only by TestEncodeDeterministicConcurrent, so its
// encoders are built while goroutines race for them.
type concNode struct {
	Name string               `json:"name"`
	Kids []*concNode          `json:"kids,omitempty"`
	Tags map[string]*concNode `json:"tags,omitempty"`
	W    float64              `json:"w"`
}

// TestEncodeDeterministicConcurrent: goroutines sharing the encoder cache
// and the state pool, one of them building a recursive type's encoder
// while the others wait on it, all write the sequential bytes.
func TestEncodeDeterministicConcurrent(t *testing.T) {
	leaf := &concNode{Name: "leaf", W: 0.1 + 0.2}
	v := concNode{Name: "root", Kids: []*concNode{leaf, {Name: "mid", Kids: []*concNode{leaf}}}, Tags: map[string]*concNode{"b": leaf, "a": nil}}
	const n = 8
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = EncodeDeterministic(&buf, v)
			got[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	want, err := encodeRoundTrip(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil || !bytes.Equal(got[i], want) {
			t.Fatalf("goroutine %d: err %v, bytes:\n%s\nwant:\n%s", i, errs[i], got[i], want)
		}
	}
}
