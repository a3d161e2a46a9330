package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/cluster"
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
	"rbpebble/internal/service"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// fleet is the system under test: rbserve nodes (service.New with the
// default Config) and, when asked for, an rbproxy in front of them
// (cluster.NewProxy with static members and the prober off).
type fleet struct {
	nodes     []*service.Server
	nodeLns   []*listener
	proxy     *cluster.Proxy
	proxyLn   *listener
	nodeAddrs []string
}

func newFleet(nodes int, withProxy bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < nodes; i++ {
		s := service.New(service.Config{})
		ln, err := listen(s.Handler())
		if err != nil {
			s.Close()
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, s)
		f.nodeLns = append(f.nodeLns, ln)
		f.nodeAddrs = append(f.nodeAddrs, ln.addr)
	}
	if withProxy {
		f.proxy = cluster.NewProxy(cluster.ProxyConfig{Members: f.nodeAddrs, ProbeInterval: -1})
		ln, err := listen(f.proxy.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.proxyLn = ln
	}
	return f, nil
}

func (f *fleet) nodeURL(i int) string { return "http://" + f.nodeAddrs[i] }
func (f *fleet) proxyURL() string     { return "http://" + f.proxyLn.addr }

// close stops every server and waits for it.
func (f *fleet) close() {
	if f.proxyLn != nil {
		f.proxyLn.close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	for _, ln := range f.nodeLns {
		ln.close()
	}
	for _, s := range f.nodes {
		s.Close()
	}
}

// client is one closed-loop client: it holds a single keep-alive
// connection per host.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	start  time.Time
	lat    time.Duration // request written to response fully read
	node   string        // X-Rbproxy-Node: the member the proxy routed to
}

func (c *client) post(url string, body []byte) (reply, error) {
	rp := reply{start: time.Now()}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		rp.lat = time.Since(rp.start)
		return rp, err
	}
	rp.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.lat = time.Since(rp.start)
	rp.status = resp.StatusCode
	rp.node = resp.Header.Get("X-Rbproxy-Node")
	if err != nil {
		return rp, fmt.Errorf("read response: %w", err)
	}
	return rp, nil
}

// modelOf maps an instance's wire model onto the library model.
func modelOf(in instance) pebble.Model {
	switch in.Model {
	case "base":
		return pebble.NewModel(pebble.Base)
	case "nodel":
		return pebble.NewModel(pebble.NoDel)
	case "compcost":
		return pebble.Model{Kind: pebble.CompCost, EpsDenom: in.EpsDenom}
	default:
		return pebble.NewModel(pebble.Oneshot)
	}
}

var moveKinds = map[string]pebble.MoveKind{
	"load": pebble.Load, "store": pebble.Store, "compute": pebble.Compute, "delete": pebble.Delete,
}

// traceOf rebuilds the pebbling a response returned for rq.
func traceOf(rq request, resp *service.SolveResponse) (*pebble.Trace, error) {
	r := rq.Inst.R
	if r == 0 {
		r = pebble.MinFeasibleR(rq.G)
	}
	tr := &pebble.Trace{Model: modelOf(rq.Inst), R: r, Moves: make([]pebble.Move, len(resp.Moves))}
	for i, m := range resp.Moves {
		k, ok := moveKinds[m.Op]
		if !ok {
			return nil, fmt.Errorf("move %d: unknown op %q", i, m.Op)
		}
		tr.Moves[i] = pebble.Move{Kind: k, Node: dag.NodeID(m.Node)}
	}
	return tr, nil
}

// errWrong marks a wrong answer, as opposed to a refused or failed
// request: a wrong answer makes the run incorrect.
var errWrong = errors.New("wrong answer")

// checkAnswer checks one answer against the instance it was asked for:
// the returned trace replays on the requester's own graph to the
// returned upper cost, lower <= upper, and the interval contains the
// pinned optimum where one is known. It returns the scaled interval.
func checkAnswer(rq request, resp *service.SolveResponse) (lower, upper int64, err error) {
	m := modelOf(rq.Inst)
	scale := anytime.CostScale(m)
	upper = int64(math.Round(resp.Upper * scale))
	lower = int64(math.Round(resp.Lower * scale))
	tr, err := traceOf(rq, resp)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %s: %v", errWrong, rq.Inst.Name, err)
	}
	res, err := tr.Run(rq.G)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %s: trace does not replay: %v", errWrong, rq.Inst.Name, err)
	}
	if got := res.Cost.Scaled(m); got != upper {
		return 0, 0, fmt.Errorf("%w: %s: trace costs %d, response says upper %d", errWrong, rq.Inst.Name, got, upper)
	}
	if lower > upper {
		return 0, 0, fmt.Errorf("%w: %s: lower %d > upper %d", errWrong, rq.Inst.Name, lower, upper)
	}
	if opt := rq.Inst.Opt; opt > 0 && (lower > opt || upper < opt) {
		return 0, 0, fmt.Errorf("%w: %s: interval [%d, %d] misses the optimum %d", errWrong, rq.Inst.Name, lower, upper, opt)
	}
	if resp.Optimal && lower != upper {
		return 0, 0, fmt.Errorf("%w: %s: optimal with open interval [%d, %d]", errWrong, rq.Inst.Name, lower, upper)
	}
	return lower, upper, nil
}

// decodeSolve parses a POST /solve response; a non-200 status is a
// failed (not wrong) request.
func decodeSolve(status int, body []byte) (*service.SolveResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("%w: undecodable response: %v", errWrong, err)
	}
	return &resp, nil
}

// warmUp solves reqs through url with n concurrent clients (set-up
// cache fill); every answer is checked like a measured one.
func warmUp(url string, reqs []request, n int) error {
	errs := make(chan error, len(reqs))
	work := make(chan request)
	done := make(chan struct{})
	for c := 0; c < n; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			cl := newClient()
			defer cl.close()
			for rq := range work {
				rp, err := cl.post(url, rq.Body)
				if err == nil {
					var resp *service.SolveResponse
					if resp, err = decodeSolve(rp.status, rp.body); err == nil {
						_, _, err = checkAnswer(rq, resp)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("set-up %s: %w", rq.Inst.Name, err)
				}
			}
		}()
	}
	for _, rq := range reqs {
		work <- rq
	}
	close(work)
	for c := 0; c < n; c++ {
		<-done
	}
	close(errs)
	return <-errs // nil when the channel is empty
}
