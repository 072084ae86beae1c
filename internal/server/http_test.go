package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONAnswers500OnEncodeError: a response the encoder refuses
// reaches the client as a 500 carrying an ErrorResponse, not as the
// intended status with an empty body.
func TestWriteJSONAnswers500OnEncodeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]float64{"ratio": math.NaN()})
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("body is not an ErrorResponse: %v", err)
	}
	if er.Schema != Schema || !strings.Contains(er.Error, "NaN") {
		t.Fatalf("ErrorResponse = %+v, want the schema and the encoder's complaint", er)
	}
}
