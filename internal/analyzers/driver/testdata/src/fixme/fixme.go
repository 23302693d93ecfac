// Package fixme seeds fixable findings for the -fix driver tests: two
// unbounded HTTP body reads, each carrying a suggested fix that
// statlint -fix must apply to leave a clean tree.
package fixme

import (
	"encoding/json"
	"io"
	"net/http"
)

// DecodeReply decodes a response body with no cap.
func DecodeReply(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// SlurpBody buffers a request body with no cap.
func SlurpBody(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body)
}
