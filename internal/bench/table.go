package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a formatted experiment result: rows of cells plus free-form
// notes, printable as aligned text or Markdown.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends one free-form note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// maxBatchCell renders a max-batch answer. An answer at MaxBatchCeiling
// means every probe up to the ceiling fit: the search stopped at the
// ceiling, not at the largest batch that fits, which is at least that.
func maxBatchCell(b int64) string {
	if b >= MaxBatchCeiling {
		return "≥" + strconv.FormatInt(b, 10)
	}
	return strconv.FormatInt(b, 10)
}

// ratioCell renders the ratio of two max-batch answers, "-" when den is
// 0. An answer at the ceiling is a lower bound, so a ceiling numerator
// makes the ratio one ("≥"), a ceiling denominator an upper bound ("≤"),
// and both an unknown ("-").
func ratioCell(num, den int64) string {
	numCut, denCut := num >= MaxBatchCeiling, den >= MaxBatchCeiling
	switch {
	case den == 0 || numCut && denCut:
		return "-"
	case numCut:
		return fmt.Sprintf("≥%.2fx", float64(num)/float64(den))
	case denCut:
		return fmt.Sprintf("≤%.2fx", float64(num)/float64(den))
	}
	return fmt.Sprintf("%.2fx", float64(num)/float64(den))
}

// widths computes per-column widths, in runes: text cells pad by rune.
func (t *Table) widths() []int {
	w := make([]int, len(t.Header))
	for i, h := range t.Header {
		w[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(w) && n > w[i] {
				w[i] = n
			}
		}
	}
	return w
}

// WriteText writes the table as aligned plain text.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s\n\n", t.Title); err != nil {
		return err
	}
	ws := t.widths()
	line := func(cells []string) string {
		parts := make([]string, len(ws))
		for i := range ws {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", ws[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(ws))
	for i, n := range ws {
		rule[i] = strings.Repeat("-", n)
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteTSV writes the table as tab-separated values (header then rows, no
// title or notes): machine-readable series for external plotting.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown writes the table as GitHub-flavoured Markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	row := func(cells []string) string {
		return "| " + strings.Join(cells, " | ") + " |"
	}
	if _, err := fmt.Fprintln(w, row(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = "---"
	}
	if _, err := fmt.Fprintln(w, row(rule)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		padded := make([]string, len(t.Header))
		copy(padded, r)
		if _, err := fmt.Fprintln(w, row(padded)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
