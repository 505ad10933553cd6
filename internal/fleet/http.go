package fleet

// HTTP wire layer of the lease protocol. Floats cross the wire as
// strconv 'g'/-1 strings — the store's lossless encoding — because
// encoding/json rejects NaN/±Inf float64 values and several
// experiments legitimately produce them; the string round trip is
// bit-exact, which invariant 9 requires.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/store"
)

// Wire types.

// leaseRequest is the body of POST /fleet/lease.
type leaseRequest struct {
	// Worker is a self-chosen worker name, used only in coordinator logs
	// and stats attribution.
	Worker string `json:"worker"`
	// Tables, when present, piggybacks the worker's response-table
	// warmth report on the lease poll (surfaced via GET /fleet/stats).
	// Optional so pre-existing workers stay wire-compatible.
	Tables *WorkerTables `json:"tables,omitempty"`
}

// leaseResponse is the 200 body of POST /fleet/lease; "no job" is a
// bare 204.
type leaseResponse struct {
	// LeaseID names the grant in heartbeat/complete calls.
	LeaseID string `json:"lease_id"`
	// Job is the work to compute.
	Job wireDesc `json:"job"`
	// TTLMillis is the heartbeat deadline interval in milliseconds.
	TTLMillis int64 `json:"ttl_ms"`
}

// wireDesc mirrors experiments.JobDesc field for field, plus Sharded:
// always true, because every job is a point range. Workers built when a
// job could also be a whole-experiment cell read it to compute the
// range rather than run the full experiment; a worker that reads false
// is talking to a coordinator from that time and fails the job (see
// Worker).
type wireDesc struct {
	ID      string `json:"id"`
	Seed    int64  `json:"seed"`
	Sharded bool   `json:"sharded"`
	Point   int    `json:"point"`
	Count   int    `json:"count"`
}

func toWireDesc(d experiments.JobDesc) wireDesc {
	return wireDesc{ID: d.ID, Seed: d.Seed, Sharded: true, Point: d.Point, Count: d.Count}
}

func (w wireDesc) desc() experiments.JobDesc {
	return experiments.JobDesc{ID: w.ID, Seed: w.Seed, Point: w.Point, Count: w.Count}
}

// heartbeatRequest is the body of POST /fleet/heartbeat.
type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// completeRequest is the body of POST /fleet/complete: the job's
// per-point output, or Error with the part of the job that completed.
type completeRequest struct {
	LeaseID string `json:"lease_id"`
	// Error, when non-empty, reports the worker's compute failure.
	// Points then carries the finished prefix: Error is the failing
	// point's own message, and the failure sits at the range's first
	// point plus len(Points).
	Error string `json:"error,omitempty"`
	// Points carries the job's per-point output, in axis order.
	Points []wirePoint `json:"points,omitempty"`
	// ElapsedMillis is the worker's compute time for the job, kept for
	// coordinators that do not read ElapsedNanos.
	ElapsedMillis int64 `json:"elapsed_ms"`
	// ElapsedNanos is the same time at full resolution; fromWire
	// prefers it when present.
	ElapsedNanos int64 `json:"elapsed_ns,omitempty"`
}

// wirePoint is one sweep point's output with string-encoded rows.
type wirePoint struct {
	Rows  [][]string `json:"rows,omitempty"`
	Notes []string   `json:"notes,omitempty"`
}

// decodeWireRows parses string cells back to float64 rows (bit-exact,
// NaN/±Inf included).
func decodeWireRows(rows [][]string) ([][]float64, error) {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		dec := make([]float64, len(row))
		for j, s := range row {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: non-numeric cell %q", i, j, s)
			}
			dec[j] = v
		}
		out[i] = dec
	}
	return out, nil
}

// toWire encodes an in-memory result as a completion payload.
func toWire(res experiments.ExternalResult) completeRequest {
	req := completeRequest{ElapsedMillis: res.Elapsed.Milliseconds(), ElapsedNanos: int64(res.Elapsed)}
	for _, p := range res.Points {
		req.Points = append(req.Points, wirePoint{Rows: store.EncodeRows(p.Rows), Notes: p.Notes})
	}
	return req
}

// fromWire decodes a completion payload back to an ExternalResult.
func fromWire(req completeRequest) (experiments.ExternalResult, error) {
	var out experiments.ExternalResult
	// A negative (or, in milliseconds, overflowing) compute time would
	// turn the run's Timing.Busy and the stored Meta.ElapsedNs negative.
	if req.ElapsedMillis < 0 || req.ElapsedMillis > math.MaxInt64/int64(time.Millisecond) || req.ElapsedNanos < 0 {
		return out, fmt.Errorf("elapsed time out of range (elapsed_ms %d, elapsed_ns %d)", req.ElapsedMillis, req.ElapsedNanos)
	}
	out.Elapsed = time.Duration(req.ElapsedMillis) * time.Millisecond
	if req.ElapsedNanos != 0 {
		out.Elapsed = time.Duration(req.ElapsedNanos)
	}
	for i, p := range req.Points {
		rows, err := decodeWireRows(p.Rows)
		if err != nil {
			return out, fmt.Errorf("point %d: %w", i, err)
		}
		out.Points = append(out.Points, experiments.PointResult{Rows: rows, Notes: p.Notes})
	}
	return out, nil
}

// Handler serves the coordinator's lease protocol:
//
//	POST /fleet/lease      {"worker":W}            -> 200 grant | 204 no job
//	POST /fleet/heartbeat  {"lease_id":L}          -> 204 | 404 unknown | 409 expired
//	POST /fleet/complete   {"lease_id":L, ...}     -> 204 | 404 unknown | 400 malformed
//	GET  /fleet/stats                              -> 200 Stats JSON
//
// Mount it on the serving mux at "/" — its patterns carry the /fleet
// prefix already.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.Tables != nil {
			c.RecordWorkerTables(req.Worker, *req.Tables)
		}
		g, ok := c.Lease(req.Worker)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, leaseResponse{
			LeaseID:   g.ID,
			Job:       toWireDesc(g.Desc),
			TTLMillis: g.TTL.Milliseconds(),
		})
	})
	mux.HandleFunc("POST /fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		switch err := c.Heartbeat(req.LeaseID); {
		case errors.Is(err, ErrUnknownLease):
			httpError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, ErrLeaseExpired):
			httpError(w, http.StatusConflict, err.Error())
		case err != nil:
			httpError(w, http.StatusInternalServerError, err.Error())
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("POST /fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := fromWire(req)
		if err != nil {
			c.reject(req.LeaseID, err)
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		switch err := c.Complete(req.LeaseID, res, req.Error); {
		case errors.Is(err, ErrUnknownLease):
			httpError(w, http.StatusNotFound, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("GET /fleet/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

// readJSON decodes the request body into v, answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Client speaks the worker side of the wire protocol against one
// coordinator base URL.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string
	// HTTP is the underlying client; nil means a 30s-timeout default.
	HTTP *http.Client
}

// httpClient returns the configured or default underlying client.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// post sends one JSON request and decodes the reply into out (when out
// is non-nil and the reply has a body). It maps the protocol's error
// statuses back to the coordinator's sentinel errors.
func (c *Client) post(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := c.httpClient().Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotFound:
		return resp.StatusCode, ErrUnknownLease
	case http.StatusConflict:
		return resp.StatusCode, ErrLeaseExpired
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: %s: decoding reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Lease requests a job, optionally piggybacking the worker's
// response-table warmth report (nil to report nothing); ok is false
// when the coordinator has none right now.
func (c *Client) Lease(worker string, tables *WorkerTables) (grant Grant, ok bool, err error) {
	var resp leaseResponse
	status, err := c.post("/fleet/lease", leaseRequest{Worker: worker, Tables: tables}, &resp)
	if err != nil {
		return Grant{}, false, err
	}
	if status == http.StatusNoContent {
		return Grant{}, false, nil
	}
	return Grant{
		ID:        resp.LeaseID,
		Desc:      resp.Job.desc(),
		TTL:       time.Duration(resp.TTLMillis) * time.Millisecond,
		wholeCell: !resp.Job.Sharded,
	}, true, nil
}

// Heartbeat extends the lease; ErrLeaseExpired / ErrUnknownLease map
// the protocol's 409/404.
func (c *Client) Heartbeat(leaseID string) error {
	_, err := c.post("/fleet/heartbeat", heartbeatRequest{LeaseID: leaseID}, nil)
	return err
}

// Complete posts the job's computed result under its lease.
func (c *Client) Complete(leaseID string, res experiments.ExternalResult) error {
	req := toWire(res)
	req.LeaseID = leaseID
	_, err := c.post("/fleet/complete", req, nil)
	return err
}

// Fail reports the worker's compute failure for job d under its lease,
// with what completed before it (a *experiments.JobError's Done). The
// failing point travels as its place after the completed prefix, and
// Error as that point's own message, so the run error names the point
// once.
func (c *Client) Fail(leaseID string, d experiments.JobDesc, workErr error) error {
	if workErr == nil {
		workErr = errors.New("unknown worker error")
	}
	var req completeRequest
	var je *experiments.JobError
	if errors.As(workErr, &je) {
		req = toWire(je.Done)
	}
	req.LeaseID, req.Error = leaseID, workErr.Error()
	var pe *experiments.PointError
	if errors.As(workErr, &pe) && pe.Err != nil && pe.Point == d.Point+len(req.Points) {
		req.Error = pe.Err.Error()
	}
	_, err := c.post("/fleet/complete", req, nil)
	return err
}
