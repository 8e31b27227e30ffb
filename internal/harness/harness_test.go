package harness

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestMeasureErr(t *testing.T) {
	calls := 0
	d, err := MeasureErr(1, 2, func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatalf("MeasureErr: %v", err)
	}
	if d <= 0 {
		t.Fatalf("MeasureErr returned non-positive duration %v", d)
	}
	if calls != 3 {
		t.Fatalf("MeasureErr ran f %d times, want 3 (1 warmup + 2 reps)", calls)
	}

	boom := errors.New("boom")
	calls = 0
	_, err = MeasureErr(0, 5, func() error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("MeasureErr error = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("MeasureErr kept running after failure: %d calls", calls)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Note = "a note"
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", 150*time.Microsecond)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "a note", "a", "b", "xyz", "2.5", "150.0µs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := NewTable("demo", "x", "y")
	tb.AddRow(1, 2)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, "# demo\n") || !strings.Contains(out, "x,y\n") || !strings.Contains(out, "1,2\n") {
		t.Fatalf("csv wrong:\n%s", out)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2 * time.Second, "2.000s"},
		{15 * time.Millisecond, "15.000ms"},
		{37 * time.Microsecond, "37.0µs"},
	}
	for _, tc := range cases {
		if got := formatDuration(tc.d); got != tc.want {
			t.Fatalf("formatDuration(%v) = %q want %q", tc.d, got, tc.want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Fatalf("experiment %d is %s, want %s", i, exps[i].ID, id)
		}
	}
	if _, ok := Find("E7"); !ok {
		t.Fatal("Find(E7) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("Find(E99) should fail")
	}
}

// TestQuickExperimentsProduceTables smoke-runs every experiment in quick
// mode and checks the tables are well formed (this exercises the full
// measurement pipeline end to end).
func TestQuickExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(true)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q has no rows", e.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("%s: table %q row width %d != %d columns",
							e.ID, tb.Title, len(row), len(tb.Columns))
					}
					for _, cell := range row {
						if strings.HasPrefix(cell, "err:") {
							t.Fatalf("%s: table %q contains error cell %q", e.ID, tb.Title, cell)
						}
					}
				}
				var sb strings.Builder
				tb.Render(&sb)
				if !strings.Contains(sb.String(), tb.Title) {
					t.Fatalf("%s: render missing title", e.ID)
				}
			}
		})
	}
}
