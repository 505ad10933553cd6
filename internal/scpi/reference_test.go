package scpi

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"fmt"
	"strconv"
	"strings"
)

// QueryFloat runs Query and parses the response as a float64.
func (c *Client) QueryFloat(cmd string) (float64, error) {
	s, err := c.Query(cmd)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("scpi: %q returned non-numeric %q", cmd, s)
	}
	return v, nil
}
