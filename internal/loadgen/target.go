package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"jvmgc/internal/labd"
)

// HTTPTarget drives a daemon or fleet router over real HTTP. Request
// payloads are marshaled once at construction and reused; response
// bodies are drained into pooled scratch so connections return to the
// keep-alive pool — the generator must not be the allocation story it
// is measuring.
type HTTPTarget struct {
	url      string
	client   *http.Client
	payloads [][]byte
	scratch  sync.Pool // *[]byte for body draining
}

// NewHTTPTarget builds a target posting the given specs (cycled) to
// url's submit endpoint. A nil client selects a pooled keep-alive
// default sized for fan-out load.
func NewHTTPTarget(url string, specs []labd.JobSpec, client *http.Client) (*HTTPTarget, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("loadgen: no specs")
	}
	t := &HTTPTarget{url: url + "/v1/jobs", client: client}
	if t.client == nil {
		t.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 256,
		}}
	}
	for _, s := range specs {
		b, err := json.Marshal(labd.SubmitRequest{Job: s})
		if err != nil {
			return nil, err
		}
		t.payloads = append(t.payloads, b)
	}
	t.scratch.New = func() any {
		b := make([]byte, 32<<10)
		return &b
	}
	return t, nil
}

// Do posts request i's payload and drains the response.
func (t *HTTPTarget) Do(ctx context.Context, i int) error {
	body := t.payloads[i%len(t.payloads)]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	bp := t.scratch.Get().(*[]byte)
	for {
		if _, err := resp.Body.Read(*bp); err != nil {
			break
		}
	}
	t.scratch.Put(bp)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("loadgen: HTTP %d", resp.StatusCode)
	}
	return nil
}
