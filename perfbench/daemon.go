package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cmd/mediatord subprocess listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	started time.Time
	ctl     *http.Client // health checks and profiles: no keep-alive
	exited  chan struct{}
	waitErr error
	log     bytes.Buffer
}

// startDaemon starts mediatord with its defaults and the catalog's -books
// and -seed, and returns once /healthz answers, with the time that took.
func startDaemon(bin string, books int, seed int64) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		ctl:    &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: 10 * time.Second},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-books", strconv.Itoa(books), "-seed", strconv.FormatInt(seed, 10))
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	// The daemon dies with this process, should it end without stopping it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		resp, err := d.ctl.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(d.started), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("mediatord exited before answering /healthz: %v\n%s", d.waitErr, d.log.String())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(d.started) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("mediatord did not answer /healthz within 60s")
		}
	}
}

// stop asks the daemon to drain and exit, kills it if it does not, and
// waits until it has ended.
func (d *daemon) stop() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-d.exited:
			return
		case <-time.After(20 * time.Second):
		}
	}
	d.cmd.Process.Kill() //nolint:errcheck // it may already have exited
	<-d.exited
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// httpTarget sends the union queries to mediatord's /query over
// keep-alive connections.
type httpTarget struct {
	client *http.Client
	urls   []string // per distinct query
	bufs   []bytes.Buffer
	bytes  []int64 // response bytes per client
}

func newHTTPTarget(d *daemon, texts []string, clients int) *httpTarget {
	t := &httpTarget{
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		bufs:  make([]bytes.Buffer, clients),
		bytes: make([]int64, clients),
	}
	for _, s := range texts {
		t.urls = append(t.urls, d.base+"/query?q="+url.QueryEscape(s))
	}
	return t
}

// get fetches u into buf and returns the status code.
func (t *httpTarget) get(ctx context.Context, u string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// responseBytes is the body bytes received so far, all clients.
func (t *httpTarget) responseBytes() float64 {
	var n int64
	for _, b := range t.bytes {
		n += b
	}
	return float64(n)
}

var answerCountKey = []byte(`"answer_count": `)

func (t *httpTarget) do(ctx context.Context, client int, r request, ct *clientTrace) (int, error) {
	buf := &t.bufs[client]
	code, err := t.get(ctx, t.urls[r.id], buf)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", code, strings.TrimSpace(buf.String()))
	}
	t.bytes[client] += int64(buf.Len())
	body := buf.Bytes()
	i := bytes.LastIndex(body, answerCountKey)
	if i < 0 {
		return 0, errors.New("response has no answer_count")
	}
	j := i + len(answerCountKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	return strconv.Atoi(string(body[j:k]))
}

// queryResult is mediatord's /query response.
type queryResult struct {
	Query       string              `json:"query"`
	Answers     []map[string]string `json:"answers"`
	AnswerCount int                 `json:"answer_count"`
}

// fetchQuery decodes the daemon's full answer to distinct query id.
func (t *httpTarget) fetchQuery(id int) (*queryResult, error) {
	var buf bytes.Buffer
	code, err := t.get(context.Background(), t.urls[id], &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", code, strings.TrimSpace(buf.String()))
	}
	var out queryResult
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// daemonMeter meters the daemon: its CPU from /proc, its allocations and
// GC from the runtime.MemStats block of its heap profile. Its GC cycles
// leave out the collections the meter forces.
type daemonMeter struct {
	d *daemon
}

// memStats fetches the daemon's runtime.MemStats, after a forced GC, from
// /debug/pprof/heap?debug=1.
func (d *daemon) memStats() (map[string]string, error) {
	resp, err := d.ctl.Get(d.base + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok && strings.HasPrefix(line, "# ") {
			out[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, errors.New("heap profile has no runtime.MemStats block")
	}
	return out, nil
}

func (m daemonMeter) read() (usage, error) {
	var u usage
	// A forced collection first brings GCCPUFraction up to now; a daemon
	// idle since its last cycle would otherwise report a stale share.
	ms, err := m.d.memStats()
	if err != nil {
		return u, err
	}
	u.cpu, err = procCPU(m.d.cmd.Process.Pid)
	if err != nil {
		return u, err
	}
	num, _ := strconv.ParseUint(ms["NumGC"], 10, 64)
	forced, _ := strconv.ParseUint(ms["NumForcedGC"], 10, 64)
	u.allocs, _ = strconv.ParseUint(ms["TotalAlloc"], 10, 64)
	u.gcCycles = num - forced
	// GCCPUFraction is GC CPU, idle-time marking excluded, over GOMAXPROCS
	// × the time since the runtime started, as of the last collection.
	frac, _ := strconv.ParseFloat(ms["GCCPUFraction"], 64)
	u.gcCPU = frac * float64(runtime.GOMAXPROCS(0)) * time.Since(m.d.started).Seconds()
	u.steal, u.hostTicks = hostSteal()
	return u, nil
}
