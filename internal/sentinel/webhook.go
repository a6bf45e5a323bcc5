package sentinel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/retry"
)

// deliverWebhook posts ev to url asynchronously with at-least-once
// semantics under the shared retry policy (internal/retry): bounded
// attempts, jittered exponential backoff between them, 4xx treated as
// permanent (the endpoint rejected the payload — retrying cannot help),
// everything else retried. Delivery is tied to the monitor's lifetime,
// not the watch's: a watch detached right after diverging still gets
// its event out. Monitor.Close waits for pending deliveries.
func (m *Monitor) deliverWebhook(url string, ev Event) {
	body, err := json.Marshal(ev)
	if err != nil {
		m.counters.WebhookFailures.Add(1)
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		p := retry.Policy{Attempts: m.opts.WebhookAttempts, Base: m.opts.WebhookBackoff}
		if err := p.Do(m.ctx, func() error { return m.postWebhook(url, body) }); err != nil {
			m.counters.WebhookFailures.Add(1)
			return
		}
		m.counters.WebhookDeliveries.Add(1)
	}()
}

// postWebhook makes one delivery attempt. A 4xx, or a failure after the
// monitor closed, is permanent; transport errors and other non-2xx
// statuses are transient.
func (m *Monitor) postWebhook(url string, body []byte) error {
	req, err := http.NewRequestWithContext(m.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.opts.WebhookClient.Do(req)
	if err != nil {
		if m.ctx.Err() != nil {
			return retry.Permanent(err)
		}
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode < 300:
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return retry.Permanent(fmt.Errorf("sentinel: webhook rejected: %s", resp.Status))
	}
	return fmt.Errorf("sentinel: webhook: %s", resp.Status)
}
