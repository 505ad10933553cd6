package telemetry

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

// Malformed returns the count of datagrams rejected by decoding.
func (c *Collector) Malformed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.malformed
}

// Append serializes the report onto the end of dst and returns the
// extended slice.
func (r *Report) Append(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = append(dst, make([]byte, FrameLen)...)
	if _, err := r.SerializeTo(dst[n:]); err != nil {
		return dst[:n], err
	}
	return dst, nil
}
