// Package user is a lint fixture: the importer that keeps lib's
// exports alive.
package user

import "github.com/llama-surface/llama/internal/lint/testdata/src/unused/internal/lib"

// Use reaches lib from another package.
func Use() int { return lib.Build(2).Count() }
