package bench

import (
	"encoding/json"
	"io"
)

// jsonTable mirrors Table with explicit JSON tags so the machine-readable
// output (remac-bench -json) is stable against internal renames.
type jsonTable struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
}

type jsonRow struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values,omitempty"`
	Text   map[string]string  `json:"text,omitempty"`
}

// WriteJSON serializes the tables as an indented JSON array (remac-bench
// -json).
func WriteJSON(w io.Writer, tables []*Table) error {
	out := make([]jsonTable, 0, len(tables))
	for _, t := range tables {
		jt := jsonTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}
		for _, r := range t.Rows {
			jt.Rows = append(jt.Rows, jsonRow{Label: r.Label, Values: r.Values, Text: r.Text})
		}
		out = append(out, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
