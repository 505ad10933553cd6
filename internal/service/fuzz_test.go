package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

// FuzzSubmitRequest fuzzes the POST /runs decoder. Any body gets 201,
// 400, or 413 when it exceeds the size cap, and never a panic. The
// server is fleet-only with no workers attached, so an accepted run
// computes nothing; each is cancelled with DELETE /runs/{id}. The seed
// corpus holds the CI smoke bodies (sharded, and resume:false), a body
// with an unknown field and one naming an unknown experiment.
func FuzzSubmitRequest(f *testing.F) {
	for _, name := range []string{"submit_sharded.json", "submit_no_resume.json", "submit_unknown_field.json", "submit_unknown_experiment.json"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st, Fleet: true, FleetOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(data)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("POST /runs answered %d (%s), want 201, 400 or 413", rec.Code, rec.Body)
		}
		var run struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil || run.ID == "" {
			t.Fatalf("201 body %q names no run (%v)", rec.Body, err)
		}
		del := httptest.NewRecorder()
		svc.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/runs/"+run.ID, nil))
		if del.Code != http.StatusAccepted && del.Code != http.StatusNoContent {
			t.Fatalf("DELETE /runs/%s answered %d (%s), want 202 or 204", run.ID, del.Code, del.Body)
		}
	})
}
