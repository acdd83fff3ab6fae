package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
)

// The API's JSON bodies, read and written the same way by replicas
// (internal/mapserver, internal/ingest) and the fleet router
// (internal/fleet), so the two answer one request with the same bytes.

// ErrorBody is the wire form of every JSON error response.
type ErrorBody struct {
	Error string `json:"error"`
}

// bufPool recycles the JSON staging buffers of WriteJSON and the
// request bodies DecodeBatch reads, so the hot serving paths grow no
// fresh buffer per response or request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// jsonCT is the Content-Type value shared by every JSON response.
var jsonCT = []string{"application/json"}

// SetJSONType sets the JSON Content-Type on w. Assigning the shared
// slice directly instead of Header().Set avoids the per-request
// []string{v} allocation Set performs; the slice is never mutated, only
// replaced wholesale by handlers that set a different type.
func SetJSONType(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonCT
}

// WriteJSON sends v as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Encode into the pooled buffer first: the bytes on the wire are the
	// same as encoding straight into w (Encoder's trailing newline
	// included), but a marshal failure can still become a clean 500
	// instead of a torn body.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		SetJSONType(w)
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"response encoding failed"}` + "\n"))
		return
	}
	SetJSONType(w)
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// WriteJSONBytes sends a pre-marshalled JSON body without re-encoding.
func WriteJSONBytes(w http.ResponseWriter, code int, body []byte) {
	SetJSONType(w)
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// WriteError sends a structured JSON error with the given status.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// DecodeJSON decodes the one JSON value body holds into v: only
// whitespace may follow it, as DecodeQueries admits no byte after a
// frame. The error text is client-facing.
func DecodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}
