package flagged

import (
	"encoding/json"
	"net/http"
)

// decodeJSON caps the body it decodes, but the second decoder reads
// the raw body: a file named wire.go gets no exemption.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(dst); err != nil {
		return err
	}
	return json.NewDecoder(r.Body).Decode(dst) // want `json\.NewDecoder reads an HTTP body unbounded`
}
