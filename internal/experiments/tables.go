package experiments

// Glue between the per-design response tables (internal/metasurface)
// and their persisted records (internal/store). The store deliberately
// treats table entries as opaque string rows, and metasurface knows
// nothing about disk layout — this file is the only place the two
// meet, so llama-bench, llama-serve and llama-worker all warm-start
// and persist tables through one code path.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
)

// LoadResponseTables imports every persisted response table from the
// store into the process-wide table registry, so surfaces built
// afterwards (or already built for the same designs) answer from warm
// tables. Records are read, decoded and imported concurrently, at most
// GOMAXPROCS at a time; each import is a union of pure values, so the
// order cannot change any byte. A table that ends up holding exactly
// its record's entries is noted on the handle (store.NoteTableSynced),
// so SaveResponseTables through the same handle skips it until it
// grows. It returns the number of tables and entries imported and a
// warning per record that could not be used, sorted by fingerprint —
// corrupt (truncated, unparseable, schema-mismatched or mislabelled) or
// metasurface-rejected records cost recomputation, never correctness,
// so they warn instead of failing.
func LoadResponseTables(st *store.Store) (tables, entries int, warns []string) {
	if st == nil {
		return 0, 0, nil
	}
	fps, err := st.TableFingerprints()
	if err != nil {
		return 0, 0, []string{fmt.Sprintf("store: listing response tables: %v: starting cold", err)}
	}
	out := make([]loadedTable, len(fps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(fps)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(fps); i = int(next.Add(1) - 1) {
				out[i] = loadResponseTable(st, fps[i])
			}
		}()
	}
	wg.Wait()
	for _, l := range out {
		if l.warn != "" {
			warns = append(warns, l.warn)
		}
		if l.imported {
			tables++
			entries += l.entries
		}
	}
	return tables, entries, warns
}

// loadedTable is the outcome of loading one table record: the entries
// it imported, or a warning. Neither is set for a record deleted since
// the listing — nothing to load, nothing to warn about.
type loadedTable struct {
	imported bool
	entries  int
	warn     string
}

// loadResponseTable reads and imports the record of one fingerprint.
func loadResponseTable(st *store.Store, fp string) loadedTable {
	rec, err := st.GetTable(fp)
	if store.IsNotFound(err) {
		return loadedTable{}
	}
	if err != nil {
		return loadedTable{warn: fmt.Sprintf("%v: skipping", err)}
	}
	n, version, exact, err := metasurface.ImportResponseTable(metasurface.TableExport{
		Fingerprint: rec.Fingerprint,
		Axis:        rec.Axis,
		QWP:         rec.QWP,
	})
	if err != nil {
		return loadedTable{warn: fmt.Sprintf("store: response table %s at %s: %v: skipping", rec.Fingerprint, rec.Path, err)}
	}
	if exact {
		st.NoteTableSynced(rec, version)
	}
	return loadedTable{imported: true, entries: n}
}

// SaveResponseTables persists every non-empty in-memory response table
// that this store handle does not already hold, union-merged with
// whatever is already on disk. A table is skipped — nothing read,
// decoded, exported or written, so its record keeps its old
// SavedUnixNs — when it has not grown since this handle loaded or wrote
// its record and that record file is unchanged (store.TableSynced: the
// table's version plus one stat). Any other table takes the merge path:
// an existing record's entries are imported first (existing in-memory
// entries win, so nothing this process computed is overwritten), then
// the merged table is exported and written atomically. Concurrent
// writers can still lose each other's *new* entries to a last-write
// race — acceptable for what is pure acceleration state. A corrupt
// existing record is warned about and overwritten with the fresh
// table. It returns the number of tables and entries written and any
// warnings.
func SaveResponseTables(st *store.Store) (tables, entries int, warns []string) {
	if st == nil {
		return 0, 0, nil
	}
	for _, tv := range metasurface.ResponseTableVersions() {
		if tv.Entries == 0 {
			continue // an empty table record would only add scan noise
		}
		if st.TableSynced(tv.Fingerprint, tv.Version) {
			continue
		}
		if old, err := st.GetTable(tv.Fingerprint); err == nil {
			if _, _, _, err := metasurface.ImportResponseTable(metasurface.TableExport{
				Fingerprint: old.Fingerprint,
				Axis:        old.Axis,
				QWP:         old.QWP,
			}); err != nil {
				warns = append(warns, fmt.Sprintf("store: merging response table %s at %s: %v: overwriting", tv.Fingerprint, old.Path, err))
			}
		} else if !store.IsNotFound(err) {
			warns = append(warns, fmt.Sprintf("store: reading response table %s: %v: overwriting", tv.Fingerprint, err))
		}
		// Export after the merge so the written record carries the union.
		ex, version, ok := metasurface.ExportResponseTable(tv.Fingerprint)
		if !ok {
			continue // the registry was reset under us; nothing to persist
		}
		rec := &store.TableRecord{Fingerprint: ex.Fingerprint, Axis: ex.Axis, QWP: ex.QWP}
		if err := st.PutTable(rec); err != nil {
			warns = append(warns, fmt.Sprintf("%v", err))
			continue
		}
		st.NoteTableSynced(rec, version)
		tables++
		entries += rec.Entries()
	}
	return tables, entries, warns
}
