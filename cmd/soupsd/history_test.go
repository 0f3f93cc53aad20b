package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro"
)

// encoderBytes is what writeJSON produces for v: the reference bytes for
// /history, which streams its answer without encoding/json.
func encoderBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHistoryAnswersEncoderBytes pins GET /history to the bytes and
// Content-Type of writeJSON(h.Trace()) for an entity carrying described,
// undescribed, tentative and withdrawn (obsolete) versions, with describe
// text that needs JSON escaping; and for an entity whose whole history is
// folded into its archived summary, which answers an empty list.
func TestHistoryAnswersEncoderBytes(t *testing.T) {
	s, _ := newTestServer(t, 0)
	k := s.kernel

	archived := repro.Key{Type: "Account", ID: "B1"}
	if _, err := k.Update(archived, repro.Delta("balance", 1)); err != nil {
		t.Fatal(err)
	}
	k.Compact()
	w := doJSON(t, s.handleHistory, "GET", "/history/Account/B1", "")
	if w.Code != http.StatusOK || w.Body.String() != "[]\n" {
		t.Fatalf("archived-only history = %d %q, want 200 %q", w.Code, w.Body, "[]\n")
	}

	key := repro.Key{Type: "Account", ID: "A1"}
	for _, body := range []string{
		`{"delta":{"balance":10},"describe":"opening <deposit> & \"bonus\"\u2028\t\u0001"}`,
		`{"set":{"owner":"bob"}}`,
	} {
		if w := doJSON(t, s.handleEntity, "POST", "/entities/Account/A1", body); w.Code != http.StatusOK {
			t.Fatalf("write %s = %d %s", body, w.Code, w.Body)
		}
	}
	if _, err := k.UpdateTentative(key, "shop", "hold", 1, repro.Delta("balance", -3).Described("hold 3 for checkout")); err != nil {
		t.Fatal(err)
	}
	withdrawn, err := k.UpdateTentative(key, "shop", "hold", 1, repro.Delta("balance", -4).Described("hold 4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.BreakPromise(withdrawn.ID, "out of stock", "voucher"); err != nil {
		t.Fatal(err)
	}

	h, err := k.History(key)
	if err != nil {
		t.Fatal(err)
	}
	want := encoderBytes(t, h.Trace())
	w = doJSON(t, s.handleHistory, "GET", "/history/Account/A1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /history = %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", got)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("GET /history body differs from writeJSON(h.Trace())\n got: %q\nwant: %q", w.Body.Bytes(), want)
	}
	body := w.Body.String()
	for _, part := range []string{`\u003cdeposit\u003e \u0026 \"bonus\"\u2028\t\u0001`, "set owner=bob", "hold 3 for checkout [tentative]", "hold 4 [obsolete]"} {
		if !strings.Contains(body, part) {
			t.Fatalf("history body %s lacks %q", body, part)
		}
	}
}

// TestHistoryErrorAnswers: a missing entity is 404, a malformed path or an
// unknown type is 400, exactly as before the streamed encoding.
func TestHistoryErrorAnswers(t *testing.T) {
	s, _ := newTestServer(t, 0)
	for _, tc := range []struct {
		path string
		code int
		body string
	}{
		{"/history/Account/missing", http.StatusNotFound, "not found\n"},
		{"/history/Account", http.StatusBadRequest, "path must be /history/Type/ID\n"},
		{"/history/Nope/x", http.StatusBadRequest, "lsdb: unknown entity type: Nope\n"},
	} {
		w := doJSON(t, s.handleHistory, "GET", tc.path, "")
		if w.Code != tc.code || w.Body.String() != tc.body {
			t.Fatalf("GET %s = %d %q, want %d %q", tc.path, w.Code, w.Body, tc.code, tc.body)
		}
	}
}

// TestReadOnlyEndpointsRefuseOtherMethods: /history/ and /warnings answer
// only GET, like /entities and /events refuse methods they do not serve.
func TestReadOnlyEndpointsRefuseOtherMethods(t *testing.T) {
	s, _ := newTestServer(t, 0)
	if _, err := s.kernel.Update(repro.Key{Type: "Account", ID: "A1"}, repro.Delta("balance", 1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    http.HandlerFunc
		path string
	}{
		{s.handleHistory, "/history/Account/A1"},
		{s.handleWarnings, "/warnings"},
	} {
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			if w := doJSON(t, tc.h, method, tc.path, "{}"); w.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s = %d %s, want 405", method, tc.path, w.Code, w.Body)
			}
		}
		if w := doJSON(t, tc.h, "GET", tc.path, ""); w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d %s, want 200", tc.path, w.Code, w.Body)
		}
	}
}
