package lib

// Orphan is called by nothing.
func Orphan() int { return 1 }

// Widget is kept alive by Build, but one of its methods is not.
type Widget struct{ n int }

// Spin is a method nothing calls; Widget's own methods do not count.
func (w *Widget) Spin() int { return w.Count() + 1 }

// Limit is a constant nothing reads.
const Limit = 3

// DeadB is called by nothing.
func DeadB() int { return DeadA() + 1 }

// DeadA is called only by DeadB, so it is reported in the same run.
func DeadA() int { return 2 }

// Ping and Pong call only each other.
func Ping(n int) int {
	if n == 0 {
		return 0
	}
	return Pong(n - 1)
}

// Pong is Ping's only caller.
func Pong(n int) int { return Ping(n) }
