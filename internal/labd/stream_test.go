package labd

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBatchStream pins the reader's error contract, which a fleet
// router acts on: a stream that cannot be read returns the read error
// (a peer cut mid-line, as a killed node is), one that reads but is not
// the protocol returns ErrMalformedBatch, and one that ends cleanly
// short of its count returns the short count and no error.
func TestReadBatchStream(t *testing.T) {
	const header = `{"batch":2,"node":"a"}` + "\n"
	const event = `{"index":1,"status":"done","result":{"a":1}}` + "\n"
	cut := errors.New("connection cut")
	cases := []struct {
		name      string
		body      io.Reader
		events    int
		malformed bool
		readErr   error
	}{
		{"whole", strings.NewReader(header + event + `{"index":0,"status":"failed","error":"x"}` + "\n"), 2, false, nil},
		{"ends clean, short", strings.NewReader(header + event), 1, false, nil},
		{"extra lines unread", strings.NewReader(header + event + event + "garbage\n"), 2, false, nil},
		{"empty", strings.NewReader(""), 0, true, nil},
		{"bad header", strings.NewReader("not the protocol\n"), 0, true, nil},
		{"bad event", strings.NewReader(header + event + "{\"index\":\n"), 1, true, nil},
		{"cut mid-line", io.MultiReader(strings.NewReader(header+event+`{"index":0,"sta`), iotest.ErrReader(cut)), 1, false, cut},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := 0
			h, got, err := ReadBatchStream(c.body, func(ev BatchEvent) {
				if ev.Index != 1 && ev.Index != 0 {
					t.Errorf("event index %d", ev.Index)
				}
				n++
			})
			if got != c.events || n != c.events {
				t.Errorf("read %d events (%d handed on), want %d", got, n, c.events)
			}
			if errors.Is(err, ErrMalformedBatch) != c.malformed {
				t.Errorf("err %v, want malformed=%v", err, c.malformed)
			}
			if c.readErr != nil && !errors.Is(err, c.readErr) {
				t.Errorf("err %v, want the read error %v", err, c.readErr)
			}
			if !c.malformed && c.readErr == nil && (err != nil || h.Batch != 2) {
				t.Errorf("header %+v, err %v; want a batch of 2 and no error", h, err)
			}
		})
	}
}
