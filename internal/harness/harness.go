// Package harness runs the experiment suite: repeated timed measurements
// with warmup, formatted table and CSV output, and the experiment
// definitions (E1..E13) that regenerate every table and figure of the
// reproduction (see DESIGN.md for the index).
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// MeasureErr times f: it runs warmup untimed iterations, then reps timed
// ones, and returns the minimum duration (the standard noise-robust
// estimator for repeatable kernels). The first error f returns aborts the
// measurement, so a solver that rejects its input (ErrSingular, a shape
// mismatch) reports that up through the experiment instead of taking the
// process down mid-suite.
func MeasureErr(warmup, reps int, f func() error) (time.Duration, error) {
	for i := 0; i < warmup; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		err := f()
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Table accumulates rows for one experiment and renders them as an aligned
// text table or CSV.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
	// Chart, when non-nil, is the figure rendering of the table's series,
	// drawn after the rows by Render.
	Chart *Chart
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row, formatting each cell with %v (floats get %.4g).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Chart != nil {
		t.Chart.Render(w)
	}
}

// RenderCSV writes the table as CSV (title and note as # comments).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "# %s\n", t.Note)
	}
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Environment returns a one-line description of the measurement host, so
// experiment output is self-describing.
func Environment() string {
	return fmt.Sprintf("%s %s/%s, GOMAXPROCS=%d, %d CPUs",
		runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// Experiment is one reproducible table/figure generator.
type Experiment struct {
	ID    string
	Title string
	// Run produces the experiment's tables. quick shrinks problem sizes
	// for fast smoke runs. A non-nil error means the experiment could not
	// complete (a solver rejected its input); partial tables may still be
	// returned alongside it.
	Run func(quick bool) ([]*Table, error)
}

// registry of experiments, populated by experiments.go.
var registry []Experiment

// Register adds an experiment (called from init in experiments.go).
func Register(e Experiment) { registry = append(registry, e) }

// Experiments returns the registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// lessID orders E1 < E2 < ... < E10 numerically.
func lessID(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
