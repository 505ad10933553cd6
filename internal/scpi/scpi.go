// Package scpi implements the instrument-control protocol LLAMA's
// controller uses to program the bias supply: SCPI (Standard Commands for
// Programmable Instruments) over a newline-delimited TCP byte stream, the
// same wire format VISA's TCPIP::SOCKET resource class carries to a real
// Tektronix 2230G (§3.3).
//
// The package has three parts: a command tree with SCPI-style abbreviated
// header matching ("INSTrument" matches INST, INSTR, INSTRUMENT, …), a
// context-aware TCP server with per-connection deadlines, and a client
// with request/response helpers. The psu binding (Bind) exposes the
// subset of the 2230G command set the paper's Python/VISA script uses.
package scpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Handler executes one parsed command. args are the comma-separated
// arguments (already trimmed); query says whether the header ended in '?'.
// A non-nil error is converted into an SCPI error-queue entry; for queries
// the returned string is sent back to the client.
type Handler func(args []string, query bool) (string, error)

// command is one node of the tree.
type command struct {
	// full is the full-length header mnemonic, e.g. "INSTRUMENT".
	full string
	// short is the required abbreviation prefix, e.g. "INST".
	short string
}

// matches reports whether token (already uppercased) is a legal spelling:
// either the short form or any prefix-extension of it up to the full form.
func (c command) matches(token string) bool {
	if len(token) < len(c.short) || len(token) > len(c.full) {
		return false
	}
	return strings.HasPrefix(c.full, token)
}

// Node is a registered command path with its handler.
type node struct {
	path    []command
	handler Handler
}

// Tree is an SCPI command dispatcher. Register paths with Add, then
// Dispatch raw lines against it. Tree is safe for concurrent dispatch
// after registration completes.
type Tree struct {
	mu    sync.RWMutex
	nodes []node
	// errq is the SCPI error queue (SYSTem:ERRor?).
	errq []string
}

// NewTree returns an empty dispatcher.
func NewTree() *Tree { return &Tree{} }

// Add registers a handler under an SCPI path spec like
// "INSTrument:SELect" — uppercase letters form the required short form,
// the full token is the whole word. It panics on malformed specs or
// duplicate registrations (programmer errors).
func (t *Tree) Add(spec string, h Handler) {
	if h == nil {
		panic("scpi: nil handler")
	}
	path := parseSpec(spec)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.nodes {
		if samePath(n.path, path) {
			panic(fmt.Sprintf("scpi: duplicate registration %q", spec))
		}
	}
	t.nodes = append(t.nodes, node{path: path, handler: h})
}

// parseSpec splits "INSTrument:SELect" into command tokens.
func parseSpec(spec string) []command {
	parts := strings.Split(spec, ":")
	path := make([]command, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			panic(fmt.Sprintf("scpi: empty token in spec %q", spec))
		}
		short := p
		for i, r := range p {
			if r >= 'a' && r <= 'z' {
				short = p[:i]
				break
			}
		}
		if short == "" {
			panic(fmt.Sprintf("scpi: spec token %q has no short form", p))
		}
		path = append(path, command{full: strings.ToUpper(p), short: strings.ToUpper(short)})
	}
	return path
}

func samePath(a, b []command) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].full != b[i].full {
			return false
		}
	}
	return true
}

// Dispatch parses and executes one SCPI line (without the trailing
// newline). Multiple semicolon-separated commands are executed in order;
// query responses are joined with ';'. Errors are pushed onto the error
// queue and reported through SYSTem:ERRor? in instrument fashion — the
// returned error is non-nil only for queries that failed (so the server
// can still answer something).
func (t *Tree) Dispatch(line string) (string, error) {
	var responses []string
	for _, part := range strings.Split(line, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		resp, isQuery, err := t.dispatchOne(part)
		if err != nil {
			t.pushError(err.Error())
			if isQuery {
				return "", err
			}
			continue
		}
		if isQuery {
			responses = append(responses, resp)
		}
	}
	return strings.Join(responses, ";"), nil
}

// dispatchOne handles a single command unit.
func (t *Tree) dispatchOne(part string) (resp string, isQuery bool, err error) {
	header := part
	var argstr string
	if i := strings.IndexAny(part, " \t"); i >= 0 {
		header, argstr = part[:i], strings.TrimSpace(part[i+1:])
	}
	isQuery = strings.HasSuffix(header, "?")
	header = strings.TrimSuffix(header, "?")
	tokens := strings.Split(strings.ToUpper(strings.TrimPrefix(header, ":")), ":")

	h := t.lookup(tokens)
	if h == nil {
		return "", isQuery, fmt.Errorf("-113,\"Undefined header; %s\"", header)
	}
	var args []string
	if argstr != "" {
		args = strings.Split(argstr, ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
	}
	resp, err = h(args, isQuery)
	return resp, isQuery, err
}

// lookup finds the handler whose path matches the tokens.
func (t *Tree) lookup(tokens []string) Handler {
	t.mu.RLock()
	defer t.mu.RUnlock()
outer:
	for _, n := range t.nodes {
		if len(n.path) != len(tokens) {
			continue
		}
		for i, c := range n.path {
			if !c.matches(tokens[i]) {
				continue outer
			}
		}
		return n.handler
	}
	return nil
}

// errQueueCap bounds the error queue: errors past it are dropped.
const errQueueCap = 16

// pushError appends to the bounded error queue.
func (t *Tree) pushError(msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errq) >= errQueueCap {
		return // queue overflow is silently dropped, like hardware
	}
	t.errq = append(t.errq, msg)
}

// PopError removes and returns the oldest queued error, or the SCPI
// no-error sentinel when the queue is empty.
func (t *Tree) PopError() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errq) == 0 {
		return `0,"No error"`
	}
	e := t.errq[0]
	t.errq = t.errq[1:]
	return e
}

// Commands returns the registered full-form paths, sorted, for
// documentation and debugging.
func (t *Tree) Commands() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.nodes))
	for _, n := range t.nodes {
		var parts []string
		for _, c := range n.path {
			parts = append(parts, c.full)
		}
		out = append(out, strings.Join(parts, ":"))
	}
	sort.Strings(out)
	return out
}
