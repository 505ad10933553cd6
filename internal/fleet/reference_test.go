package fleet

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Stats fetches the coordinator's lease counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.httpClient().Get(c.Base + "/fleet/stats")
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("fleet: /fleet/stats: %s", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Stats{}, err
	}
	return st, nil
}
