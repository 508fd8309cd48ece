package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is the wire Syncer: it speaks the v1 HTTP/JSON protocol to a
// bigmap-corpusd daemon (internal/corpusd). Transport failures, 5xx and 429
// responses are retried with doubling backoff — safe because pushes are
// idempotent under their sequence numbers — while 4xx protocol errors fail
// fast and map back onto the package sentinel errors via WireError.Code.
//
// A Client is safe for concurrent use by multiple workers (it holds no
// per-worker state; cursors live server-side).
type Client struct {
	base     string
	campaign string
	hc       *http.Client

	// Retries is how many times a retryable request is re-sent after the
	// first failure. Backoff is the pause before the first retry, doubling
	// per attempt (a 429's Retry-After, in seconds, overrides it when
	// longer). Both have defaults from NewClient.
	Retries int
	Backoff time.Duration

	sleep func(time.Duration) // time.Sleep, replaceable in tests
}

// NewClient returns a client for one campaign on one corpusd. baseURL is
// the daemon root (e.g. "http://127.0.0.1:7677"); campaign names the
// campaign, created on the daemon with EnsureCampaign.
func NewClient(baseURL, campaign string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("dist: corpus URL %q: need scheme://host[:port]", baseURL)
	}
	if campaign == "" {
		return nil, fmt.Errorf("dist: empty campaign name")
	}
	return &Client{
		base:     strings.TrimRight(baseURL, "/"),
		campaign: campaign,
		hc:       &http.Client{Timeout: 30 * time.Second},
		Retries:  4,
		Backoff:  100 * time.Millisecond,
		sleep:    time.Sleep,
	}, nil
}

// EnsureCampaign creates the campaign if it does not exist, or verifies the
// existing one has the same map size (mismatch is an error — the daemon
// answers 409).
func (c *Client) EnsureCampaign(mapSize int) error {
	var info CampaignInfo
	return c.do("POST", "/v1/campaigns", CampaignRequest{Name: c.campaign, MapSize: mapSize}, &info)
}

// Join implements Syncer.
func (c *Client) Join(worker string) (JoinInfo, error) {
	var info JoinInfo
	if err := c.do("POST", c.path("join"), JoinRequest{Worker: worker}, &info); err != nil {
		return JoinInfo{}, err
	}
	return info, nil
}

// Push implements Syncer.
func (c *Client) Push(worker string, b Batch) (Receipt, error) {
	var rcpt Receipt
	if err := c.do("POST", c.path("push"), PushRequest{Worker: worker, Batch: b}, &rcpt); err != nil {
		return Receipt{}, err
	}
	return rcpt, nil
}

// Pull implements Syncer.
func (c *Client) Pull(worker string) ([]Pulled, error) {
	var resp PullResponse
	if err := c.do("POST", c.path("pull"), PullRequest{Worker: worker}, &resp); err != nil {
		return nil, err
	}
	return resp.Inputs, nil
}

// Stats implements Syncer.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	if err := c.do("GET", c.path(""), nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

func (c *Client) path(tail string) string {
	p := "/v1/campaigns/" + url.PathEscape(c.campaign)
	if tail != "" {
		p += "/" + tail
	}
	return p
}

// do sends one JSON request with the retry policy and decodes the 2xx
// response into out.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("dist: marshal %s: %w", path, err)
		}
	}
	backoff := c.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > c.Retries {
				return fmt.Errorf("dist: %s %s: giving up after %d attempts: %w",
					method, path, attempt, lastErr)
			}
			c.sleep(backoff)
			backoff *= 2
		}
		retryable, retryAfter, err := c.once(method, path, body, out)
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		if retryAfter > backoff {
			backoff = retryAfter
		}
		lastErr = err
	}
}

// once performs a single HTTP exchange. retryable reports whether the
// failure is worth re-sending (transport error, 5xx, 429); retryAfter is
// the server-requested pause from a 429, zero otherwise.
func (c *Client) once(method, path string, body []byte, out any) (retryable bool, retryAfter time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return false, 0, fmt.Errorf("dist: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, 0, fmt.Errorf("dist: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close() //bigmap:err-ok response body close on a fully-read body has nothing left to fail
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return true, 0, fmt.Errorf("dist: %s %s: read response: %w", method, path, err)
	}
	if resp.StatusCode/100 == 2 {
		if out == nil {
			return false, 0, nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return false, 0, fmt.Errorf("dist: %s %s: decode response: %w", method, path, err)
		}
		return false, 0, nil
	}
	var we WireError
	//bigmap:err-ok error bodies may be non-JSON (proxies); the status code alone is actionable
	_ = json.Unmarshal(data, &we)
	msg := we.Error
	if msg == "" {
		msg = strings.TrimSpace(string(data))
	}
	httpErr := fmt.Errorf("dist: %s %s: HTTP %d: %s", method, path, resp.StatusCode, msg)
	switch we.Code {
	case CodeUnknownWorker:
		return false, 0, fmt.Errorf("%w (%s)", ErrUnknownWorker, msg)
	case CodeSeqGap:
		return false, 0, fmt.Errorf("%w (%s)", ErrSeqGap, msg)
	case CodeSizeMismatch:
		return false, 0, fmt.Errorf("%w (%s)", ErrSizeMismatch, msg)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Retry-After is delay-seconds (documented in docs/CLI.md).
		if secs, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return true, retryAfter, httpErr
	}
	return resp.StatusCode/100 == 5, 0, httpErr
}
