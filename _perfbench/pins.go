package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// pinsJSON holds the exact counts recorded on the tree this benchmark
// was written against: workload → seed → count name → value, where the
// seed "*" holds the counts every seed shares. Counts
// must repeat exactly on unchanged code, so a later change may claim a
// gain on a count only when it repeats; a run whose counts drift from
// these, from the layout, or from pass to pass is flagged (not failed —
// a change that legitimately moves a count, such as fewer circuit
// evaluations, must still be measurable).
//
//go:embed pins.json
var pinsJSON []byte

// checkPins prints every pinned count and flags drift.
func (b *bench) checkPins() {
	var recorded map[string]map[string]map[string]int64
	if err := json.Unmarshal(pinsJSON, &recorded); err != nil {
		fmt.Printf("  pins: unreadable pins.json: %v\n", err)
	}
	want := make(map[string]int64)
	for _, key := range []string{"*", strconv.FormatInt(b.seed, 10)} {
		for n, v := range recorded[b.workload][key] {
			want[n] = v
		}
	}
	names := make([]string, 0, len(b.pins))
	for n := range b.pins {
		names = append(names, n)
	}
	sort.Strings(names)
	observed := make(map[string]int64, len(names))
	for _, n := range names {
		vals := b.pins[n]
		v := vals[0]
		observed[n] = v
		var flags []string
		for _, x := range vals[1:] {
			if x != v {
				flags = append(flags, fmt.Sprintf("varies within the run %v", vals))
				break
			}
		}
		if w, ok := b.wantPins[n]; ok && v != w {
			flags = append(flags, fmt.Sprintf("layout says %d", w))
		}
		w, ok := want[n]
		if ok && v != w {
			flags = append(flags, fmt.Sprintf("recorded %d", w))
		}
		status := "repeats"
		switch {
		case len(flags) > 0:
			status = fmt.Sprintf("DRIFT: %v", flags)
		case !ok:
			status = "repeats within the run; not recorded for this seed"
		}
		fmt.Printf("  pin %-32s %d ×%d %s\n", n, v, len(vals), status)
	}
	line, _ := json.Marshal(observed)
	fmt.Printf("  pins observed: %s\n", line)
}
