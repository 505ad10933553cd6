package lib

// Orphan is called by nothing.
func Orphan() int { return 1 }

// Widget is kept alive by Build, but one of its methods is not.
type Widget struct{ n int }

// Spin is a method nothing calls; Widget's own methods do not count.
func (w *Widget) Spin() int { return w.Count() + 1 }

// Limit is a constant nothing reads.
const Limit = 3
