package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxConns caps the client's connections per daemon: the load comes from
// one process using no more connections than the host has cores.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

type client struct {
	hc   *http.Client
	base string
}

// jobStatus holds the fields of gentriusd's job Status the benchmark reads.
type jobStatus struct {
	ID             string  `json:"id"`
	State          string  `json:"state"`
	StandTrees     int64   `json:"stand_trees"`
	Intermediate   int64   `json:"intermediate_states"`
	DeadEnds       int64   `json:"dead_ends"`
	Complete       bool    `json:"complete"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Error          string  `json:"error"`
	Finished       string  `json:"finished"`
}

type jobStats struct {
	State            string  `json:"state"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
}

type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (c *client) do(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %w", method, path, &httpError{resp.StatusCode, strings.TrimSpace(string(b))})
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return nil
}

type jobRequest struct {
	Trees    []string `json:"trees"`
	Threads  int      `json:"threads,omitempty"`
	MaxTrees int64    `json:"max_trees,omitempty"`
}

func (c *client) submit(ctx context.Context, req jobRequest) (string, error) {
	var st jobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs", req, &st); err != nil {
		return "", err
	}
	if st.ID == "" {
		return "", errors.New("POST /jobs: no job id in the response")
	}
	return st.ID, nil
}

func (c *client) status(ctx context.Context, id string) (jobStatus, error) {
	var st jobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

func (c *client) stats(ctx context.Context, id string) (jobStats, error) {
	var st jobStats
	err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/stats", nil, &st)
	return st, err
}

func (c *client) checkpoint(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/jobs/"+id+"/checkpoint", nil, nil)
}

// streamed summarizes one NDJSON tree stream.
type streamed struct {
	first, last time.Time // arrival of the first and last tree
	trees       int64
	bytes       int64
}

var treePrefix, treeSuffix = []byte(`{"tree":"`), []byte(`"}`)

// stream follows GET /jobs/{id}/trees to its end, handing each tree's Newick
// to onTree (the slice is only valid during the call) and calling onFirst
// once when the first tree arrives.
func (c *client) stream(ctx context.Context, id string, onFirst func(), onTree func([]byte)) (streamed, error) {
	var s streamed
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/trees", nil)
	if err != nil {
		return s, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return s, fmt.Errorf("GET trees: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return s, fmt.Errorf("GET trees: %w", &httpError{resp.StatusCode, strings.TrimSpace(string(b))})
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	var long []byte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, line...)
			continue
		}
		if len(long) > 0 {
			line = append(long, line...)
			long = long[:0]
		}
		if len(line) > 0 {
			now := time.Now()
			s.bytes += int64(len(line))
			nw, perr := treeOf(bytes.TrimRight(line, "\r\n"))
			if perr != nil {
				return s, perr
			}
			if s.trees == 0 {
				s.first = now
				if onFirst != nil {
					onFirst()
				}
			}
			s.last = now
			s.trees++
			onTree(nw)
		}
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, fmt.Errorf("reading trees: %w", err)
		}
	}
}

// treeOf extracts the Newick string from one {"tree":"..."} line.
func treeOf(line []byte) ([]byte, error) {
	if bytes.HasPrefix(line, treePrefix) && bytes.HasSuffix(line, treeSuffix) {
		inner := line[len(treePrefix) : len(line)-len(treeSuffix)]
		if bytes.IndexByte(inner, '\\') < 0 && bytes.IndexByte(inner, '"') < 0 {
			return inner, nil
		}
	}
	var tl struct {
		Tree string `json:"tree"`
	}
	if err := json.Unmarshal(line, &tl); err != nil || tl.Tree == "" {
		return nil, fmt.Errorf("malformed tree line %.80q", line)
	}
	return []byte(tl.Tree), nil
}

// metrics scrapes /metrics and returns every sample by its full series name
// (labels included).
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}
