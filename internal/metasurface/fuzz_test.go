package metasurface

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzImportResponseTable: the table importer must never panic on any
// rows a damaged record can carry, a rejected import must leave no table
// behind, and an accepted one must export back to rows that re-import
// exactly (canonical order) and re-export to the same rows. The seed
// corpus is a real exported table in the persisted record form.
func FuzzImportResponseTable(f *testing.F) {
	seed, err := os.ReadFile("testdata/table_record.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"axis":[["X","1","2"]],"qwp":[]}`))
	f.Add([]byte(`{"axis":[["Z","1","2","3","4","5","6","7","8","9","10","11","12","13"]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows struct {
			Axis [][]string `json:"axis"`
			QWP  [][]string `json:"qwp"`
		}
		if json.Unmarshal(data, &rows) != nil {
			return
		}
		ResetResponseTables()
		defer ResetResponseTables()
		const fp = "fuzz-import"
		n, _, _, err := ImportResponseTable(TableExport{Fingerprint: fp, Axis: rows.Axis, QWP: rows.QWP})
		if err != nil {
			if c := TableCount(); c != 0 {
				t.Fatalf("rejected import (%v) left %d table(s) behind", err, c)
			}
			return
		}
		if n != len(rows.Axis)+len(rows.QWP) {
			t.Fatalf("import reported %d entries for %d rows", n, len(rows.Axis)+len(rows.QWP))
		}
		ex, _, ok := ExportResponseTable(fp)
		if !ok || ex.Entries() > n {
			t.Fatalf("export after import: ok=%v entries=%d, imported %d", ok, ex.Entries(), n)
		}
		ResetResponseTables()
		if _, _, exact, err := ImportResponseTable(ex); err != nil || !exact {
			t.Fatalf("re-import of an export: exact=%v err=%v", exact, err)
		}
		again, _, _ := ExportResponseTable(fp)
		if !reflect.DeepEqual(again, ex) {
			t.Fatal("re-export differs from the export it was imported from")
		}
	})
}
