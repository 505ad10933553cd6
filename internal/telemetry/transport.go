package telemetry

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Reporter sends RSSI reports to a collector over UDP. It is the
// receiver-side half of Fig. 5's feedback arrow.
type Reporter struct {
	conn *net.UDPConn
	mu   sync.Mutex
	seq  uint32
}

// NewReporter dials the collector address ("127.0.0.1:port").
func NewReporter(addr string) (*Reporter, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("telemetry: dial %s: %w", addr, err)
	}
	return &Reporter{conn: conn}, nil
}

// Report sends one measurement, stamping the next sequence number. The
// lock covers only the sequence stamp and serialization into a local
// frame — the socket write happens outside it, so one slow send never
// queues other reporters behind the kernel. A failed send therefore
// burns its sequence number; the collector counts the gap as a lost
// report, which is what a failed send is.
func (r *Reporter) Report(timestamp time.Duration, rssiDBm float64, flags uint16) error {
	var buf [FrameLen]byte
	r.mu.Lock()
	rep := Report{Seq: r.seq, Timestamp: timestamp, RSSIdBm: rssiDBm, Flags: flags}
	n, err := rep.SerializeTo(buf[:])
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.seq++
	r.mu.Unlock()
	if _, err := r.conn.Write(buf[:n]); err != nil {
		return fmt.Errorf("telemetry: send: %w", err)
	}
	return nil
}

// Close releases the socket.
func (r *Reporter) Close() error { return r.conn.Close() }

// Collector receives reports on a UDP socket and delivers them on a
// channel; malformed datagrams are counted, not delivered.
type Collector struct {
	conn    *net.UDPConn
	reports chan Report

	mu        sync.Mutex
	malformed int
	lost      int
	lastSeq   uint32
	seenAny   bool

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewCollector binds addr ("127.0.0.1:0" for ephemeral) and starts the
// receive loop. The channel buffers up to 1024 reports; overflow drops
// the oldest behaviour is NOT used — instead new reports are dropped and
// counted as lost, preserving timestamp monotonicity for the sweep
// synchronizer.
func NewCollector(addr string) (*Collector, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	c := &Collector{
		conn:    conn,
		reports: make(chan Report, 1024),
		closed:  make(chan struct{}),
	}
	c.wg.Add(1)
	go c.recvLoop()
	return c, nil
}

// Addr returns the bound address for reporters to dial.
func (c *Collector) Addr() string { return c.conn.LocalAddr().String() }

// Next waits for one report, honoring ctx.
func (c *Collector) Next(ctx context.Context) (Report, error) {
	select {
	case rep, ok := <-c.reports:
		if !ok {
			return Report{}, fmt.Errorf("telemetry: collector closed")
		}
		return rep, nil
	case <-ctx.Done():
		return Report{}, fmt.Errorf("telemetry: next: %w", ctx.Err())
	}
}

// Lost returns the count of reports inferred lost from sequence gaps plus
// reports dropped on channel overflow.
func (c *Collector) Lost() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

func (c *Collector) recvLoop() {
	defer c.wg.Done()
	defer close(c.reports)
	buf := make([]byte, 2048)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		var rep Report
		if err := rep.DecodeFromBytes(buf[:n]); err != nil {
			c.mu.Lock()
			c.malformed++
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		if c.seenAny && rep.Seq > c.lastSeq+1 {
			c.lost += int(rep.Seq - c.lastSeq - 1)
		}
		if !c.seenAny || rep.Seq > c.lastSeq {
			c.lastSeq = rep.Seq
			c.seenAny = true
		}
		c.mu.Unlock()
		select {
		case c.reports <- rep:
		default:
			c.mu.Lock()
			c.lost++
			c.mu.Unlock()
		}
	}
}

// Close shuts the socket and waits for the receive loop.
func (c *Collector) Close() error {
	err := c.conn.Close()
	c.wg.Wait()
	return err
}
