package bench

import (
	"encoding/json"
	"io"
)

// WriteJSON serializes the tables as an indented JSON array (remac-bench
// -json).
func WriteJSON(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}
