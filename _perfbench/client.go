package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// submitBody is the POST /runs request.
type submitBody struct {
	IDs       []string `json:"ids,omitempty"`
	Seeds     []int64  `json:"seeds"`
	ShardRows bool     `json:"shard_rows"`
	Resume    bool     `json:"resume"`
}

// runStatus is the part of the service's status JSON the benchmark
// reads.
type runStatus struct {
	ID            string `json:"id"`
	Status        string `json:"status"`
	Error         string `json:"error"`
	ReusedCells   int    `json:"reused_cells"`
	ComputedCells int    `json:"computed_cells"`
}

// sessionTimes is what one client session measured.
type sessionTimes struct {
	submit, wait, result, del time.Duration
	submitted                 time.Time // when POST /runs was sent
	waited                    time.Time // when the terminal frame arrived
	lastByte                  time.Time // when the last result byte arrived
	resultBytes               int
	status                    runStatus
	rejected                  bool // 429 or 503 on submit
}

// session runs POST /runs → GET /runs/{id}/events until the terminal
// frame → GET /runs/{id}/result?format=csv → DELETE /runs/{id} and
// checks the result bytes against ref. Each call gets a span under
// parent when tr is non-nil; waiting, when non-nil, is told the span
// of the wait for the terminal frame, under which the work the run
// causes elsewhere belongs.
func session(ctx context.Context, c *http.Client, base string, body submitBody, ref []byte, tr *tracer, trace, parent int64, waiting func(span int64)) (sessionTimes, error) {
	var st sessionTimes
	payload, err := json.Marshal(body)
	if err != nil {
		return st, err
	}

	st.submitted = time.Now()
	sp := tr.begin(trace, parent, "service.submit")
	var created runStatus
	code, err := call(ctx, c, http.MethodPost, base+"/runs", payload, &created)
	tr.end(sp)
	st.submit = time.Since(st.submitted)
	if err != nil {
		return st, err
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		st.rejected = true
		return st, fmt.Errorf("POST /runs: refused with status %d", code)
	}
	if code != http.StatusCreated {
		return st, fmt.Errorf("POST /runs: status %d", code)
	}
	runURL := base + "/runs/" + created.ID

	t0 := time.Now()
	sp = tr.begin(trace, parent, "service.wait")
	if waiting != nil {
		waiting(sp)
	}
	st.status, err = awaitTerminal(ctx, c, runURL+"/events")
	tr.end(sp)
	st.waited = time.Now()
	st.wait = st.waited.Sub(t0)
	if err != nil {
		return st, err
	}
	if st.status.Status != "done" {
		return st, fmt.Errorf("%s ended %s: %s", created.ID, st.status.Status, st.status.Error)
	}

	t0 = time.Now()
	sp = tr.begin(trace, parent, "service.result")
	out, code, err := get(ctx, c, runURL+"/result?format=csv")
	tr.end(sp)
	st.lastByte = time.Now()
	st.result = st.lastByte.Sub(t0)
	st.resultBytes = len(out)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET result: status %d: %s", code, bytes.TrimSpace(out))
	}
	if !bytes.Equal(out, ref) {
		return st, errMismatch
	}

	t0 = time.Now()
	sp = tr.begin(trace, parent, "service.delete")
	code, err = call(ctx, c, http.MethodDelete, runURL, nil, nil)
	tr.end(sp)
	st.del = time.Since(t0)
	if err != nil {
		return st, err
	}
	if code != http.StatusNoContent {
		return st, fmt.Errorf("DELETE: status %d", code)
	}
	return st, nil
}

// call sends one request and decodes a JSON reply into out when out is
// non-nil and the reply is a success. It returns the status code.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, nil
}

// get fetches url and returns the whole body.
func get(ctx context.Context, c *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// awaitTerminal reads the run's server-sent events until a status frame
// carries a terminal status, and returns that status.
func awaitTerminal(ctx context.Context, c *http.Client, url string) (runStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return runStatus{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return runStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return runStatus{}, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return runStatus{}, fmt.Errorf("events ended before a terminal frame: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			var st runStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return runStatus{}, fmt.Errorf("decoding status frame: %w", err)
			}
			if st.Status != "running" {
				_, _ = io.Copy(io.Discard, r) // the server closes the stream after the terminal frame
				return st, nil
			}
		}
	}
}
