package store

import (
	"os"
	"strings"
	"testing"
)

// FuzzDecodeTableRecord: the table-record decoder must never panic, and
// whatever it accepts must carry the current schema and a fingerprint.
// The seed corpus is a real exported table record plus damaged copies.
func FuzzDecodeTableRecord(f *testing.F) {
	seed, err := os.ReadFile("testdata/table_record.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte{}, seed...), seed...))
	f.Add([]byte(strings.Replace(string(seed), `"schema":1`, `"schema":2`, 1)))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeTableRecord(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("rejected record (%v) returned alongside a value", err)
			}
			return
		}
		if rec.Schema != TableSchemaVersion || rec.Fingerprint == "" {
			t.Fatalf("accepted record with schema %d, fingerprint %q", rec.Schema, rec.Fingerprint)
		}
	})
}
