package metasurface

// The per-design response-table registry. PR 3's cache lived and died
// with its Surface, so fig15's seven per-distance surfaces of the same
// design each recomputed the full circuit response. The memoized
// evaluations depend only on the *design's physics* — never on which
// Surface instance asked — so the tables here are keyed by a canonical
// fingerprint of the design's physical parameters and shared across
// every Surface of that design, across goroutines, and (through the
// export/import forms below plus internal/store) across processes.
// Sharing is transparent: a table entry holds the bit-exact output of
// the same pure evaluation the uncached path runs, so shared, persisted
// and per-surface caching all produce identical bytes (determinism
// invariant #10 in ARCHITECTURE.md).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/twoport"
)

// responseTableVersion is folded into every design fingerprint so that
// persisted tables computed by an older physics model can never alias a
// newer one: bump it whenever axisEval/qwpEval (or anything they call)
// changes numerically, and all stored tables become unreachable and are
// recomputed.
const responseTableVersion = 1

// DesignFingerprint returns the canonical identity of a design's
// response physics: a hex digest over every numeric field of the
// design, its substrate, and its varactor model — exactly the inputs
// axisEval and qwpEval can observe — plus the response-table version.
// Name strings are deliberately excluded (labels do not change
// physics); every numeric field is deliberately included, because an
// omitted field that later influences an evaluation would alias two
// different designs onto one table, while an extra field merely splits
// tables. Two designs with equal fingerprints produce bit-identical
// responses at every operating point.
func DesignFingerprint(d Design) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.BigEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	i := func(x int) { word(uint64(int64(x))) }

	fmt.Fprintf(h, "llama-response-table-v%d:", responseTableVersion)
	// Substrate (materials.Dielectric), numeric fields in declaration order.
	f(d.Substrate.EpsilonR)
	f(d.Substrate.LossTangent)
	f(d.Substrate.CostPerM2PerLayer)
	// Diode (varactor.Model), numeric fields in declaration order.
	f(d.Diode.C0)
	f(d.Diode.Vj)
	f(d.Diode.M)
	f(d.Diode.Cp)
	f(d.Diode.Rs)
	f(d.Diode.Ls)
	f(d.Diode.LeakageA)
	f(d.Diode.MinBias)
	f(d.Diode.MaxBias)
	// Design, numeric fields in declaration order.
	f(d.CenterHz)
	f(d.PatternIndex)
	f(d.QWPLayerThickness)
	f(d.QWPPath)
	f(d.QWPConcentration)
	f(d.QWPMismatch)
	f(d.QWPSelectivity)
	i(d.BFSLayers)
	f(d.BFSLayerThickness)
	f(d.BFSPath)
	f(d.BFSConcentration)
	f(d.LoadPitch)
	f(d.BFSSelectivity)
	f(d.BFSResonanceBias)
	f(d.BiasOffsetX)
	f(d.UnitSize)
	i(d.UnitsX)
	i(d.UnitsY)
	i(d.VaractorsPerUnit)
	f(d.VaractorUnitCost)
	f(d.MinBiasV)
	f(d.MaxBiasV)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// The process-wide table registry: one shared response table per design
// fingerprint. Surfaces resolve their table once at construction, so
// the registry lock is never on a lookup hot path.
var (
	tablesMu sync.Mutex
	tables   = make(map[string]*responseTable)
)

// tableFor returns the shared response table for fingerprint fp,
// creating an empty one on first use.
func tableFor(fp string) *responseTable {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	t, ok := tables[fp]
	if !ok {
		t = newResponseTable(fp)
		tables[fp] = t
	}
	return t
}

// TableCount returns the number of design tables currently registered.
//
//lint:allow unused read by the benchmark harness under _perfbench, which the tree walk skips, and by tests
func TableCount() int {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	return len(tables)
}

// ResetResponseTables empties the table registry (test isolation, and
// A/B benchmarks that need a cold exact path). Surfaces built before
// the reset keep their old table; build surfaces after resetting.
//
//lint:allow unused test hook, also called by the benchmark harness under _perfbench for a cold start
func ResetResponseTables() {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	tables = make(map[string]*responseTable)
}

// Serialized entry arities. An axis row is
//
//	[axis, f, v, s11re, s11im, s12re, s12im, s21re, s21im, s22re, s22im, z0, gammaRe, gammaIm]
//
// and a QWP row is
//
//	[f, fastS×9, slowS×9, plusMat×8, minusMat×8]
//
// where an S-parameter block is the four complex entries as re/im pairs
// followed by the reference impedance, and a Jones-matrix block is the
// four complex entries as re/im pairs. Floats are formatted with
// strconv.FormatFloat(v, 'g', -1, 64), the shortest string that parses
// back to the identical bits (the store's lossless convention).
const (
	axisEntryCols = 14
	qwpEntryCols  = 35
)

// TableExport is the store-friendly serialization of one design's
// response table: pure string rows, so internal/store can persist it
// without importing this package. Produced by ExportResponseTable,
// consumed by ImportResponseTable.
type TableExport struct {
	// Fingerprint is the DesignFingerprint the entries belong to.
	Fingerprint string
	// Axis holds one row per memoized per-axis evaluation (axisEntryCols
	// columns each), sorted canonically.
	Axis [][]string
	// QWP holds one row per memoized QWP evaluation (qwpEntryCols
	// columns each), sorted canonically.
	QWP [][]string
}

// fmtFloat renders one float losslessly.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fmtComplex appends the lossless re/im pair of c to row.
func fmtComplex(row []string, c complex128) []string {
	return append(row, fmtFloat(real(c)), fmtFloat(imag(c)))
}

// fmtSParams appends an S-parameter block (9 columns) to row.
func fmtSParams(row []string, s twoport.SParams) []string {
	row = fmtComplex(row, s.S11)
	row = fmtComplex(row, s.S12)
	row = fmtComplex(row, s.S21)
	row = fmtComplex(row, s.S22)
	return append(row, fmtFloat(s.Z0))
}

// fmtMat appends a Jones-matrix block (8 columns) to row.
func fmtMat(row []string, m mat2.Mat) []string {
	row = fmtComplex(row, m.A)
	row = fmtComplex(row, m.B)
	row = fmtComplex(row, m.C)
	return fmtComplex(row, m.D)
}

// registered returns every registered table, sorted by fingerprint.
func registered() []*responseTable {
	tablesMu.Lock()
	list := make([]*responseTable, 0, len(tables))
	for _, t := range tables {
		list = append(list, t)
	}
	tablesMu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].fingerprint < list[j].fingerprint })
	return list
}

// TableVersion describes one registered table without its rows.
type TableVersion struct {
	// Fingerprint is the DesignFingerprint of the table.
	Fingerprint string
	// Version changes whenever the table gains an entry. Versions are
	// drawn from one process-wide counter, so a value is never reused —
	// not even by a table recreated after ResetResponseTables.
	Version uint64
	// Entries is the table's entry count (axis plus QWP).
	Entries int
}

// ResponseTableVersions lists every registered table with its version
// and entry count, sorted by fingerprint, without exporting any rows.
// Persistence compares a version with the one it saw when it last read
// or wrote the table's record to skip tables that have not grown.
func ResponseTableVersions() []TableVersion {
	list := registered()
	out := make([]TableVersion, 0, len(list))
	for _, t := range list {
		out = append(out, TableVersion{
			Fingerprint: t.fingerprint,
			Version:     t.version.Load(),
			Entries:     t.axis.size() + t.qwp.size(),
		})
	}
	return out
}

// ExportResponseTable snapshots the one table registered for
// fingerprint fp in canonical order — axis entries by (axis, frequency
// bits, bias bits), QWP entries by frequency bits, so two processes
// holding the same entries export identical bytes — and returns the version it holds every entry of: the version is read
// before the rows, so the export may hold more than that version but
// never less. ok is false when no table is registered for fp.
func ExportResponseTable(fp string) (ex TableExport, version uint64, ok bool) {
	tablesMu.Lock()
	t := tables[fp]
	tablesMu.Unlock()
	if t == nil {
		return TableExport{}, 0, false
	}
	version = t.version.Load()
	return t.export(), version, true
}

// less orders axis keys canonically: by axis, then frequency bits, then
// bias bits.
func (a axisKey) less(b axisKey) bool {
	if a.axis != b.axis {
		return a.axis < b.axis
	}
	if a.f != b.f {
		return a.f < b.f
	}
	return a.v < b.v
}

// export snapshots one table in canonical order. The snapshot unions
// the published map with any still-pending entries, so nothing computed
// before the export is ever missing from it.
func (t *responseTable) export() TableExport {
	axisMap := t.axis.snapshot()
	qwpMap := t.qwp.snapshot()
	axisKeys := make([]axisKey, 0, len(axisMap))
	for k := range axisMap {
		axisKeys = append(axisKeys, k)
	}
	qwpKeys := make([]uint64, 0, len(qwpMap))
	for k := range qwpMap {
		qwpKeys = append(qwpKeys, k)
	}
	sort.Slice(axisKeys, func(i, j int) bool { return axisKeys[i].less(axisKeys[j]) })
	sort.Slice(qwpKeys, func(i, j int) bool { return qwpKeys[i] < qwpKeys[j] })

	ex := TableExport{
		Fingerprint: t.fingerprint,
		Axis:        make([][]string, 0, len(axisKeys)),
		QWP:         make([][]string, 0, len(qwpKeys)),
	}
	for _, k := range axisKeys {
		r := axisMap[k]
		row := make([]string, 0, axisEntryCols)
		row = append(row, k.axis.String(),
			fmtFloat(math.Float64frombits(k.f)), fmtFloat(math.Float64frombits(k.v)))
		row = fmtSParams(row, r.s)
		row = fmtComplex(row, r.shortGamma)
		ex.Axis = append(ex.Axis, row)
	}
	for _, k := range qwpKeys {
		r := qwpMap[k]
		row := make([]string, 0, qwpEntryCols)
		row = append(row, fmtFloat(math.Float64frombits(k)))
		row = fmtSParams(row, r.fastS)
		row = fmtSParams(row, r.slowS)
		row = fmtMat(row, r.plus)
		row = fmtMat(row, r.minus)
		ex.QWP = append(ex.QWP, row)
	}
	return ex
}

// rowReader walks one serialized row, tracking the first parse error.
type rowReader struct {
	row []string
	i   int
	err error
}

// next parses the next float column.
func (r *rowReader) next() float64 {
	if r.err != nil {
		return 0
	}
	if r.i >= len(r.row) {
		r.err = fmt.Errorf("metasurface: table row truncated at column %d", r.i)
		return 0
	}
	v, err := strconv.ParseFloat(r.row[r.i], 64)
	if err != nil {
		r.err = fmt.Errorf("metasurface: table row column %d: %w", r.i, err)
		return 0
	}
	r.i++
	return v
}

// complexVal parses the next re/im pair.
func (r *rowReader) complexVal() complex128 {
	re := r.next()
	im := r.next()
	return complex(re, im)
}

// sparams parses the next S-parameter block.
func (r *rowReader) sparams() twoport.SParams {
	return twoport.SParams{
		S11: r.complexVal(), S12: r.complexVal(),
		S21: r.complexVal(), S22: r.complexVal(),
		Z0: r.next(),
	}
}

// mat parses the next Jones-matrix block.
func (r *rowReader) mat() mat2.Mat {
	return mat2.Mat{A: r.complexVal(), B: r.complexVal(), C: r.complexVal(), D: r.complexVal()}
}

// ImportResponseTable merges a previously exported table into the
// registry (union: existing entries win, though by purity both sides
// hold identical bits) and returns the number of entries in the export.
// The whole export is validated before any entry is applied, so a
// corrupt record never half-populates a table — callers treat an error
// as "recompute from scratch". Imports do not advance any hit/miss
// counters.
//
// It also reports the table's version after the import and whether the
// table then holds exactly the export's entries (exact). exact requires
// the export's rows in strict canonical order, as ExportResponseTable
// writes them, and no entry in the table beyond them. While the table
// stays at the returned version, exporting it again would reproduce the
// same rows, so a caller that read the export from a record need not
// write it back. On an error nothing is imported and version is zero.
func ImportResponseTable(ex TableExport) (n int, version uint64, exact bool, err error) {
	if ex.Fingerprint == "" {
		return 0, 0, false, fmt.Errorf("metasurface: table import: empty fingerprint")
	}
	type axisEntry struct {
		key axisKey
		val axisResponse
	}
	type qwpEntry struct {
		key uint64
		val qwpResponse
	}
	// canonical tracks whether the rows are strictly ascending in export
	// order, which also rules out duplicate keys.
	canonical := true
	axisEntries := make([]axisEntry, 0, len(ex.Axis))
	for n, row := range ex.Axis {
		if len(row) != axisEntryCols {
			return 0, 0, false, fmt.Errorf("metasurface: table import: axis row %d has %d columns, want %d", n, len(row), axisEntryCols)
		}
		var ax Axis
		switch row[0] {
		case AxisX.String():
			ax = AxisX
		case AxisY.String():
			ax = AxisY
		default:
			return 0, 0, false, fmt.Errorf("metasurface: table import: axis row %d: unknown axis %q", n, row[0])
		}
		r := rowReader{row: row, i: 1}
		key := axisKey{axis: ax, f: math.Float64bits(r.next()), v: math.Float64bits(r.next())}
		val := axisResponse{s: r.sparams(), shortGamma: r.complexVal()}
		if r.err != nil {
			return 0, 0, false, fmt.Errorf("metasurface: table import: axis row %d: %w", n, r.err)
		}
		if n > 0 && !axisEntries[n-1].key.less(key) {
			canonical = false
		}
		axisEntries = append(axisEntries, axisEntry{key: key, val: val})
	}
	qwpEntries := make([]qwpEntry, 0, len(ex.QWP))
	for n, row := range ex.QWP {
		if len(row) != qwpEntryCols {
			return 0, 0, false, fmt.Errorf("metasurface: table import: qwp row %d has %d columns, want %d", n, len(row), qwpEntryCols)
		}
		r := rowReader{row: row}
		key := math.Float64bits(r.next())
		val := qwpResponse{fastS: r.sparams(), slowS: r.sparams(), plus: r.mat(), minus: r.mat()}
		if r.err != nil {
			return 0, 0, false, fmt.Errorf("metasurface: table import: qwp row %d: %w", n, r.err)
		}
		if n > 0 && qwpEntries[n-1].key >= key {
			canonical = false
		}
		qwpEntries = append(qwpEntries, qwpEntry{key: key, val: val})
	}

	t := tableFor(ex.Fingerprint)
	axisKeys := make([]axisKey, len(axisEntries))
	axisVals := make([]axisResponse, len(axisEntries))
	for i, e := range axisEntries {
		axisKeys[i], axisVals[i] = e.key, e.val
	}
	qwpKeys := make([]uint64, len(qwpEntries))
	qwpVals := make([]qwpResponse, len(qwpEntries))
	for i, e := range qwpEntries {
		qwpKeys[i], qwpVals[i] = e.key, e.val
	}
	// merge publishes the union snapshot immediately: warm-started
	// entries are lock-free from the first lookup.
	t.axis.merge(axisKeys, axisVals)
	t.qwp.merge(qwpKeys, qwpVals)
	// Read the version before the sizes: an insert that lands before the
	// read shows up in the sizes, and one that lands after moves the
	// version away from the value returned here.
	version = t.version.Load()
	exact = canonical && t.axis.size() == len(axisEntries) && t.qwp.size() == len(qwpEntries)
	return len(axisEntries) + len(qwpEntries), version, exact, nil
}
