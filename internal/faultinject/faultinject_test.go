package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDecisionsAreDeterministic pins the replayability contract: two
// transports built from the same plan make identical decisions request
// for request.
func TestDecisionsAreDeterministic(t *testing.T) {
	plan := &Plan{Seed: 42, Reset: &ResetFault{P: 0.1}, Truncate: &TruncateFault{P: 0.25, AfterBytes: 128}}
	a := &transport{plan: plan}
	b := &transport{plan: plan}
	anyFault := false
	for i := 0; i < 200; i++ {
		da, db := a.decide(), b.decide()
		if da != db {
			t.Fatalf("request %d diverged: %+v vs %+v", i, da, db)
		}
		if da.reset || da.truncAt > 0 {
			anyFault = true
		}
	}
	if !anyFault {
		t.Fatal("200 requests against a faulty plan drew zero faults")
	}

	// A different seed draws a different sequence.
	other := *plan
	other.Seed = 43
	c := &transport{plan: &other}
	a2 := &transport{plan: plan}
	same := 0
	for i := 0; i < 200; i++ {
		if a2.decide() == c.decide() {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seed change did not alter the decision sequence")
	}
}

func TestTransportInjectsReset(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer upstream.Close()

	alwaysReset := &Plan{Seed: 1, Reset: &ResetFault{P: 1}}
	c := &http.Client{Transport: alwaysReset.Transport(nil)}
	_, err := c.Get(upstream.URL + "/work")
	if err == nil || !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("reset: err=%v, want ErrInjectedReset", err)
	}
}

func TestTransportTruncatesBody(t *testing.T) {
	payload := strings.Repeat("x", 4096)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer upstream.Close()

	plan := &Plan{Seed: 1, Truncate: &TruncateFault{P: 1, AfterBytes: 100}}
	c := &http.Client{Transport: plan.Transport(nil)}
	resp, err := c.Get(upstream.URL + "/work")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read err=%v, want ErrUnexpectedEOF", err)
	}
	if len(body) != 100 {
		t.Fatalf("read %d bytes before truncation, want 100", len(body))
	}
}
