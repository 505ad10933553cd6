package store

import (
	"os"
	"strings"
	"testing"
)

// seedCorpus adds a real record from testdata plus damaged copies:
// truncated, doubled (two lines), schema-bumped and empty.
func seedCorpus(f *testing.F, seed []byte) {
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte{}, seed...), seed...))
	f.Add([]byte(strings.Replace(string(seed), `"schema":1`, `"schema":2`, 1)))
	f.Add([]byte(""))
}

// readSeed loads one testdata record.
func readSeed(f *testing.F, name string) []byte {
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDecodeRecord: the shared decoder, run with the cell kind's
// validation, must never panic, and whatever it accepts must carry the
// current schema, an ID and rows that decode. The seed
// corpus holds a real cell record and a legacy one an older release
// wrote in its approximate LUT mode, which must still decode with its
// marker set so resume can refuse it.
func FuzzDecodeRecord(f *testing.F) {
	lut := readSeed(f, "cell_record_lut.json")
	if rec, err := cellKind.decode(lut); err != nil || !rec.Meta.LUT {
		f.Fatalf("legacy LUT cell: err=%v, want it decoded with Meta.LUT set", err)
	}
	seedCorpus(f, readSeed(f, "cell_record.json"))
	seedCorpus(f, lut)
	f.Add([]byte(`{"schema":1,"seed":1}`)) // current schema, no ID
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := cellKind.decode(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("rejected record (%v) returned alongside a value", err)
			}
			return
		}
		if rec.Schema != SchemaVersion || rec.ID == "" {
			t.Fatalf("accepted record with schema %d, id %q", rec.Schema, rec.ID)
		}
		if _, err := rec.DecodeRows(); err != nil {
			t.Fatalf("accepted record whose rows do not decode: %v", err)
		}
	})
}

// FuzzDecodeRunRecord: the shared decoder, run for the run kind, must
// never panic, and whatever it accepts must carry the current schema
// and an ID. The seed corpus is a real run record written by the
// service.
func FuzzDecodeRunRecord(f *testing.F) {
	seedCorpus(f, readSeed(f, "run_record.json"))
	f.Add([]byte(`{"schema":1,"status":"done"}`)) // current schema, no ID
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := runKind.decode(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("rejected record (%v) returned alongside a value", err)
			}
			return
		}
		if rec.Schema != RunSchemaVersion || rec.ID == "" {
			t.Fatalf("accepted run record with schema %d, id %q", rec.Schema, rec.ID)
		}
	})
}

// FuzzDecodeTableRecord: the shared decoder, run for the table kind,
// must never panic, and whatever it accepts must carry the current
// schema and a fingerprint. The seed corpus is a real exported table
// record.
func FuzzDecodeTableRecord(f *testing.F) {
	seedCorpus(f, readSeed(f, "table_record.json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := tableKind.decode(data)
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
