// Package lib is a lint fixture for the unused check: its exports are
// judged against every package the internal-visibility rule lets
// import it (lib itself and ../../user).
package lib

import "fmt"

// Build is called from the user package.
func Build(n int) *Widget { return &Widget{n: n} }

// Count is called from the user package through a value whose type is
// never named there.
func (w *Widget) Count() int { return w.n }

// String satisfies fmt.Stringer, so the interface keeps it.
func (w *Widget) String() string { return fmt.Sprint(w.n) }

// Hook is kept for a caller outside the module tree.
//
//lint:allow unused fixture: read by a harness the tree walk skips
func Hook() int { return Helper() }

// Helper is called only by the allowed Hook, which keeps it live.
func Helper() int { return 4 }
