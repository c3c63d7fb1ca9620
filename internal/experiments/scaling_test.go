package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestCorralScaling(t *testing.T) {
	rows, err := CorralScalingContext(context.Background(), []int{6, 8, 10}, serialQuickConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Stats.Qubits != r.Posts*2 {
			t.Errorf("posts %d: qubits %d, want %d", r.Posts, r.Stats.Qubits, r.Posts*2)
		}
		if r.QVSwaps < 0 || r.QVDuration <= 0 {
			t.Errorf("posts %d: degenerate metrics", r.Posts)
		}
		if i > 0 && r.Stats.Qubits <= rows[i-1].Stats.Qubits {
			t.Error("scaling not monotone in qubits")
		}
	}
	// Larger rings keep bounded degree (SNAIL limit) while diameter grows
	// slowly thanks to the long fence.
	for _, r := range rows {
		if r.Stats.AvgConn > 6.01 {
			t.Errorf("posts %d: avg degree %.2f exceeds the SNAIL frequency-crowding cap", r.Posts, r.Stats.AvgConn)
		}
	}
	txt := FormatCorralScaling(rows)
	if !strings.Contains(txt, "Corral-8p") {
		t.Error("formatting broken")
	}
	if _, err := CorralScalingContext(context.Background(), []int{3}, serialQuickConfig(nil)); err == nil {
		t.Error("tiny ring accepted")
	}
}

func TestSeriesCSV(t *testing.T) {
	series := []Series{{
		Label: "m", Workload: "w",
		Points: []Point{{Size: 8, Total: 10, Critical: 3}},
	}}
	csv := SeriesCSV(series, SwapCounts)
	if !strings.Contains(csv, "workload,machine,size,total_swaps,critical_swaps") ||
		!strings.Contains(csv, "w,m,8,10,3") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
	csv = SeriesCSV(series, Codesign)
	if !strings.Contains(csv, "pulse_duration") {
		t.Fatal("codesign csv header wrong")
	}
}
