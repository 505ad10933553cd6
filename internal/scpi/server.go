package scpi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/psu"
)

// Server serves an SCPI command tree over newline-delimited TCP — the
// byte-level equivalent of a VISA TCPIP::SOCKET instrument session.
type Server struct {
	tree *Tree

	// IdleTimeout closes connections with no traffic; instruments drop
	// stale sessions the same way. Zero or negative means sessions never
	// expire (no read deadline is armed).
	IdleTimeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
}

// NewServer wraps a command tree in a server with a 30 s idle timeout.
func NewServer(tree *Tree) *Server {
	if tree == nil {
		panic("scpi: nil tree")
	}
	return &Server{tree: tree, IdleTimeout: 30 * time.Second, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral test port) and starts
// accepting in a background goroutine. The returned address is the bound
// listener address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("scpi: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("scpi: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, 4096), 64*1024)
	w := bufio.NewWriter(conn)
	for {
		// A zero/negative IdleTimeout must clear the deadline, not arm one
		// in the past that would expire the session instantly — and must
		// also undo a deadline armed on an earlier iteration if the field
		// was zeroed mid-session.
		var deadline time.Time
		if s.IdleTimeout > 0 {
			deadline = time.Now().Add(s.IdleTimeout)
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			return
		}
		if !r.Scan() {
			return
		}
		line := strings.TrimRight(r.Text(), "\r")
		resp, err := s.tree.Dispatch(line)
		// Queries always get a reply line, even on error, so the client
		// never blocks waiting: the SCPI error text itself is returned.
		if err != nil {
			resp = err.Error()
		}
		if resp != "" || strings.Contains(line, "?") {
			if _, werr := w.WriteString(resp + "\n"); werr != nil {
				return
			}
			if werr := w.Flush(); werr != nil {
				return
			}
		}
	}
}

// Shutdown stops accepting, closes all connections and waits for handler
// goroutines, honoring ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	// Snapshot under the lock, close outside it: once shutdown is set, a
	// conn the accept loop races in is closed by the loop itself, so the
	// snapshot misses nothing — and no socket teardown runs under s.mu.
	s.mu.Lock()
	s.shutdown = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("scpi: shutdown: %w", ctx.Err())
	}
}

// Client is a line-oriented SCPI client session.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	// Timeout bounds each Send write and Query round trip. Zero or
	// negative means no deadline: operations block until the peer
	// responds or the connection dies.
	Timeout time.Duration
}

// opDeadline resolves the absolute deadline for one client operation; a
// non-positive Timeout yields the zero time, which net.Conn treats as
// "no deadline" (and clears any deadline a previous operation armed).
func (c *Client) opDeadline() time.Time {
	if c.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.Timeout)
}

// Dial connects to an SCPI server.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("scpi: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), Timeout: 5 * time.Second}, nil
}

// Send transmits a non-query command (no response expected).
func (c *Client) Send(cmd string) error {
	if strings.Contains(cmd, "?") {
		return fmt.Errorf("scpi: Send called with query %q; use Query", cmd)
	}
	if err := c.conn.SetWriteDeadline(c.opDeadline()); err != nil {
		return err
	}
	_, err := c.conn.Write([]byte(cmd + "\n"))
	if err != nil {
		return fmt.Errorf("scpi: send %q: %w", cmd, err)
	}
	return nil
}

// Query transmits a query and returns the single-line response.
func (c *Client) Query(cmd string) (string, error) {
	if !strings.Contains(cmd, "?") {
		return "", fmt.Errorf("scpi: Query called with non-query %q; use Send", cmd)
	}
	if err := c.conn.SetDeadline(c.opDeadline()); err != nil {
		return "", err
	}
	if _, err := c.conn.Write([]byte(cmd + "\n")); err != nil {
		return "", fmt.Errorf("scpi: query %q: %w", cmd, err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("scpi: query %q response: %w", cmd, err)
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// Close terminates the session.
func (c *Client) Close() error { return c.conn.Close() }

// Bind registers the 2230G command subset on a tree, driving the supply
// model. now supplies virtual (or wall) time for slew/rate computations.
//
// Supported headers (full forms):
//
//	*IDN?                       identification
//	INSTRUMENT:SELECT CH<n>     channel select (query returns CH<n>)
//	SOURCE:VOLTAGE <v>          set selected channel's voltage (query ok)
//	MEASURE:VOLTAGE?            measured (slewed) terminal voltage
//	OUTPUT ON|OFF|1|0           selected channel output enable (query ok)
//	APPLY CH<n>,<v>             one-shot channel+voltage program
//	SYSTEM:ERROR?               pop the error queue
func Bind(tree *Tree, supply *psu.Supply, now func() time.Duration) {
	if supply == nil || now == nil {
		panic("scpi: Bind needs a supply and a time source")
	}
	tree.Add("*IDN", func(args []string, query bool) (string, error) {
		if !query {
			return "", errors.New(`-100,"Command error; *IDN is query-only"`)
		}
		return psu.IDN, nil
	})
	tree.Add("INSTrument:SELect", func(args []string, query bool) (string, error) {
		if query {
			return supply.Selected().String(), nil
		}
		if len(args) != 1 {
			return "", errors.New(`-109,"Missing parameter; INST:SEL CH<n>"`)
		}
		ch, err := parseChannel(args[0])
		if err != nil {
			return "", err
		}
		if err := supply.Select(ch); err != nil {
			return "", scpiErr(err)
		}
		return "", nil
	})
	// SOURce is an optional default node in the 2230G's tree, so both
	// "SOUR:VOLT" and bare "VOLT" must resolve; register the handler
	// under both spellings.
	voltHandler := func(args []string, query bool) (string, error) {
		if query {
			v, err := supply.Setpoint(supply.Selected())
			if err != nil {
				return "", scpiErr(err)
			}
			return strconv.FormatFloat(v, 'f', 3, 64), nil
		}
		if len(args) != 1 {
			return "", errors.New(`-109,"Missing parameter; VOLT <v>"`)
		}
		v, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return "", fmt.Errorf(`-104,"Data type error; %s"`, args[0])
		}
		if err := supply.SetVoltage(supply.Selected(), v, now()); err != nil {
			return "", scpiErr(err)
		}
		return "", nil
	}
	tree.Add("SOURce:VOLTage", voltHandler)
	tree.Add("VOLTage", voltHandler)
	tree.Add("MEASure:VOLTage", func(args []string, query bool) (string, error) {
		if !query {
			return "", errors.New(`-100,"Command error; MEAS:VOLT is query-only"`)
		}
		v, err := supply.OutputVoltage(supply.Selected(), now())
		if err != nil {
			return "", scpiErr(err)
		}
		return strconv.FormatFloat(v, 'f', 3, 64), nil
	})
	tree.Add("OUTPut", func(args []string, query bool) (string, error) {
		if query {
			on, err := supply.Output(supply.Selected())
			if err != nil {
				return "", scpiErr(err)
			}
			if on {
				return "1", nil
			}
			return "0", nil
		}
		if len(args) != 1 {
			return "", errors.New(`-109,"Missing parameter; OUTP ON|OFF"`)
		}
		var on bool
		switch strings.ToUpper(args[0]) {
		case "ON", "1":
			on = true
		case "OFF", "0":
			on = false
		default:
			return "", fmt.Errorf(`-104,"Data type error; %s"`, args[0])
		}
		if err := supply.SetOutput(supply.Selected(), on); err != nil {
			return "", scpiErr(err)
		}
		return "", nil
	})
	tree.Add("APPLy", func(args []string, query bool) (string, error) {
		if query || len(args) != 2 {
			return "", errors.New(`-109,"Parameter error; APPL CH<n>,<v>"`)
		}
		ch, err := parseChannel(args[0])
		if err != nil {
			return "", err
		}
		v, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return "", fmt.Errorf(`-104,"Data type error; %s"`, args[1])
		}
		if err := supply.SetVoltage(ch, v, now()); err != nil {
			return "", scpiErr(err)
		}
		return "", nil
	})
	tree.Add("SYSTem:ERRor", func(args []string, query bool) (string, error) {
		if !query {
			return "", errors.New(`-100,"Command error; SYST:ERR is query-only"`)
		}
		return tree.PopError(), nil
	})
}

// parseChannel converts "CH2" (or "2") to a psu.Channel.
func parseChannel(s string) (psu.Channel, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	s = strings.TrimPrefix(s, "CH")
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf(`-104,"Data type error; channel %s"`, s)
	}
	ch := psu.Channel(n)
	if !ch.Valid() {
		return 0, fmt.Errorf(`-222,"Data out of range; channel %d"`, n)
	}
	return ch, nil
}

// scpiErr wraps instrument model errors in SCPI error-code syntax.
func scpiErr(err error) error {
	switch {
	case errors.Is(err, psu.ErrTooFast):
		return fmt.Errorf(`-213,"Init ignored; %v"`, err)
	case errors.Is(err, psu.ErrVoltageRange):
		return fmt.Errorf(`-222,"Data out of range; %v"`, err)
	case errors.Is(err, psu.ErrInvalidChannel):
		return fmt.Errorf(`-222,"Data out of range; %v"`, err)
	default:
		return fmt.Errorf(`-300,"Device error; %v"`, err)
	}
}
