package scpi

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/psu"
)

// boundInstrument returns a fully bound tree for parser robustness tests.
func boundInstrument() (*Tree, *psu.Supply) {
	supply := psu.New()
	tree := NewTree()
	now := time.Duration(0)
	Bind(tree, supply, func() time.Duration { now += 25 * time.Millisecond; return now })
	return tree, supply
}

// TestDispatchNeverPanicsOnGarbage throws random printable and binary
// lines at the full instrument tree: the dispatcher must always return
// (response or queued error), never panic.
func TestDispatchNeverPanicsOnGarbage(t *testing.T) {
	tree, _ := boundInstrument()
	rng := rand.New(rand.NewSource(44))
	alphabet := []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789:;?*,. \t-")
	for i := 0; i < 20000; i++ {
		n := rng.Intn(48)
		line := make([]byte, n)
		for j := range line {
			line[j] = alphabet[rng.Intn(len(alphabet))]
		}
		// Must not panic; errors are fine.
		tree.Dispatch(string(line)) //nolint:errcheck
	}
	// Binary garbage too.
	for i := 0; i < 5000; i++ {
		n := rng.Intn(32)
		line := make([]byte, n)
		rng.Read(line)
		tree.Dispatch(string(line)) //nolint:errcheck
	}
}

// adversarialCorpus is a table of hand-picked nasty inputs: the
// corpus test runs it and FuzzSCPIDispatch grows from it.
var adversarialCorpus = []string{
	"",
	";;;;",
	":::::",
	"?",
	"*",
	"VOLT",                         // set with no argument
	"VOLT ",                        // trailing space, no argument
	"VOLT 1 2 3",                   // too many tokens (parsed as one arg string)
	"VOLT NaN",                     // non-numeric
	"VOLT 1e309",                   // float overflow
	"VOLT -0",                      // negative zero is a legal 0
	"APPL",                         // missing everything
	"APPL CH1",                     // missing voltage
	"APPL CH1,",                    // empty voltage
	"APPL ,5",                      // empty channel
	"APPL CH99,5",                  // bad channel
	"APPL CH1,5,9",                 // extra arg
	"INST:SEL",                     // missing parameter
	"INST:SEL CHX",                 // malformed channel
	"OUTP MAYBE",                   // bad boolean
	"*IDN",                         // identification as a set
	"MEAS:VOLT 5",                  // query-only used as set
	"SYST:ERR",                     // query-only used as set
	strings.Repeat("VOLT 5;", 200), // long chains
	strings.Repeat("A", 4000),      // long header
	"INST:SEL:EXTRA:DEEP:PATH CH1", // overlong path
	"vOlT? ; iNsT:sEl? ;  *idn?",   // case soup with spaces
}

// checkIDN fails unless *IDN? still answers with the supply's identity.
func checkIDN(t *testing.T, tree *Tree) {
	t.Helper()
	resp, err := tree.Dispatch("*IDN?")
	if err != nil || !strings.Contains(resp, "2230G") {
		t.Fatalf("instrument wedged: *IDN? = %q, %v", resp, err)
	}
}

// checkErrorQueueDrains fails unless the error queue empties within
// its bound: at most errQueueCap queued errors, then the no-error
// sentinel.
func checkErrorQueueDrains(t *testing.T, tree *Tree) {
	t.Helper()
	for i := 0; tree.PopError() != `0,"No error"`; i++ {
		if i >= errQueueCap {
			t.Fatalf("error queue still not drained after %d pops", errQueueCap+1)
		}
	}
}

// TestDispatchAdversarialCorpus runs the adversarial corpus.
func TestDispatchAdversarialCorpus(t *testing.T) {
	tree, supply := boundInstrument()
	for _, line := range adversarialCorpus {
		// No panics allowed; queries may error.
		tree.Dispatch(line) //nolint:errcheck
	}
	// The instrument must still be fully functional afterwards.
	checkIDN(t, tree)
	if err := supply.Select(psu.CH2); err != nil {
		t.Fatal(err)
	}
	if resp, err := tree.Dispatch("INST:SEL?"); err != nil || resp != "CH2" {
		t.Fatalf("selection broken after corpus: %q, %v", resp, err)
	}
	checkErrorQueueDrains(t, tree)
}

// FuzzSCPIDispatch throws arbitrary lines, seeded from the adversarial
// corpus, at a fully bound instrument: Dispatch must never panic,
// *IDN? must still answer afterwards, and the error queue must drain
// within its bound.
func FuzzSCPIDispatch(f *testing.F) {
	for _, line := range adversarialCorpus {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tree, _ := boundInstrument()
		tree.Dispatch(line) //nolint:errcheck
		checkIDN(t, tree)
		checkErrorQueueDrains(t, tree)
	})
}

// TestNegativeZeroVoltage pins the edge semantics: "-0" parses to 0,
// which is in range.
func TestNegativeZeroVoltage(t *testing.T) {
	tree, supply := boundInstrument()
	if _, err := tree.Dispatch("VOLT -0"); err != nil {
		t.Fatal(err)
	}
	if e := tree.PopError(); e != `0,"No error"` {
		t.Fatalf("-0 volt queued error %q", e)
	}
	v, err := supply.Setpoint(psu.CH1)
	if err != nil || v != 0 {
		t.Fatalf("setpoint = %v, %v", v, err)
	}
}
