// Package report regenerates every table and figure of the paper's
// evaluation (§6) from the reproduction's own machinery, rendering them as
// ASCII tables/series. Each runner corresponds to one experiment of the
// per-experiment index in DESIGN.md §3 and records paper-vs-measured rows
// for EXPERIMENTS.md.
package report

import (
	"fmt"
	"reflect"
	"strings"
)

// Table is a rendered experiment result: a caption, a header row and data
// rows, printable with String.
type Table struct {
	// Caption names the experiment, e.g. "Table 1: Performance
	// Guarantees (POSP versus Anorexic)".
	Caption string
	// Header labels the columns.
	Header []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes follow the table (assumptions, paper references).
	Notes []string
}

// AddRow appends a row of cells. A cell of any float kind — float64,
// float32, or a unit type over one such as cost.Cost and cost.Ratio — is
// rounded by formatFloat; any other cell is formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if v := reflect.ValueOf(c); v.Kind() == reflect.Float64 || v.Kind() == reflect.Float32 {
			row[i] = formatFloat(v.Float())
		} else {
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	//bouquet:allow floatcmp: rendering distinguishes the literal zero cell, not a computed cost
	case v == 0:
		return "0"
	case v >= 1e5 || v < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Caption)
	sb.WriteByte('\n')

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}
