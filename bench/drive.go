package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is one running server under load.
type target struct {
	addr string // host:port
	pid  int    // whose VmHWM is read at the end of the workload
	stop func() error
}

// launcher starts a server; setup_s times it together with the readiness
// wait and the preload PUTs. The benchmark launches depserve and
// refserver; tests launch depserve's handler in-process.
type launcher func() (*target, error)

// serverLauncher starts a server binary, depserve or refserver, with
// default flags on a free loopback port, its log going to logPath.
func serverLauncher(bin, logPath string) launcher {
	return func() (*target, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		defer logf.Close() // the child holds its own descriptor
		addr := "127.0.0.1:" + strconv.Itoa(port)
		name := filepath.Base(bin)
		cmd := exec.Command(bin, "-addr", addr)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The server must not outlive the benchmark if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		stop := func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
			select {
			case err := <-exited:
				// depserve answers /readyz before it installs its SIGTERM
				// handler, so a stop right after setup may end it by the
				// signal's default action.
				var ee *exec.ExitError
				if errors.As(err, &ee) {
					if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
						return nil
					}
				}
				return err
			case <-time.After(10 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return fmt.Errorf("%s ignored SIGTERM for 10s; killed", name)
			}
		}
		return &target{addr: addr, pid: cmd.Process.Pid, stop: stop}, nil
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// rawRequest renders an HTTP/1.1 request, so the load loops only write
// bytes generated before timing.
func rawRequest(method, path string, body []byte) []byte {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: depbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	return append([]byte(head), body...)
}

var (
	readyzRequest  = rawRequest(http.MethodGet, "/readyz", nil)
	metricsRequest = rawRequest(http.MethodGet, "/metrics", nil)
)

// replyTimeout bounds one exchange, so a hung server fails the run
// instead of stalling it.
const replyTimeout = 30 * time.Second

// conn is one keep-alive connection on a blocking socket: the load loops
// write pregenerated requests and parse replies with http.ReadResponse.
// A blocking read wakes its goroutine straight from the kernel. Through
// Go's netpoller, a reply that arrived while the benchmark's other
// goroutine slept toward its due time often waited for that sleep to
// end, adding up to one open-loop period to the measured latency.
// A broken connection redials on next use.
type conn struct {
	addr syscall.SockaddrInet4
	fd   int // -1 while closed
	br   *bufio.Reader
}

func newConn(addr string) (*conn, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{addr: syscall.SockaddrInet4{Port: ta.Port}, fd: -1}
	copy(c.addr.Addr[:], ta.IP.To4())
	c.br = bufio.NewReaderSize(c, 64<<10)
	return c, nil
}

func (c *conn) dial() error {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return err
	}
	tv := syscall.NsecToTimeval(int64(replyTimeout))
	for _, err := range []error{
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv),
		syscall.Connect(fd, &c.addr),
	} {
		if err != nil {
			syscall.Close(fd)
			return err
		}
	}
	c.fd = fd
	c.br.Reset(c)
	return nil
}

// Read and Write retry system calls a signal interrupted: with a socket
// timeout set, Linux does not restart them.
func (c *conn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *conn) write(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// send writes one request, dialling first if the connection is closed.
func (c *conn) send(req []byte) error {
	if c.fd < 0 {
		if err := c.dial(); err != nil {
			return err
		}
	}
	if err := c.write(req); err != nil {
		c.close()
		return err
	}
	return nil
}

// reply reads the next reply's body into buf; replies come in the order
// their requests were sent. After an error the stream is unusable.
func (c *conn) reply(buf *bytes.Buffer) (int, error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// receive is reply on a connection one goroutine owns: it closes the
// connection after an error, so the next send redials.
func (c *conn) receive(buf *bytes.Buffer) (int, error) {
	if c.fd < 0 {
		return 0, errors.New("connection closed")
	}
	status, err := c.reply(buf)
	if err != nil {
		c.close()
	}
	return status, err
}

func (c *conn) roundTrip(req []byte, buf *bytes.Buffer) (int, error) {
	if err := c.send(req); err != nil {
		return 0, err
	}
	return c.receive(buf)
}

func (c *conn) close() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
		c.fd = -1
	}
}

// client is the benchmark's connections to one server, at most nproc.
// conns[0] also carries the readiness polls, the preload PUTs and the
// /metrics reads, which all happen while no load runs.
type client struct {
	conns []*conn
}

func newClient(addr string, n int) (*client, error) {
	c := &client{}
	for i := 0; i < n; i++ {
		cn, err := newConn(addr)
		if err != nil {
			return nil, err
		}
		c.conns = append(c.conns, cn)
	}
	return c, nil
}

func (c *client) close() {
	for _, cn := range c.conns {
		cn.close()
	}
}

// do sends o on cn and reports whether its reply succeeded with every
// answer matching the oracle.
func do(cn *conn, o *op, buf *bytes.Buffer) bool {
	return cn.send(o.req) == nil && check(cn, o, buf)
}

// check receives the reply to o, the oldest unanswered request on cn.
func check(cn *conn, o *op, buf *bytes.Buffer) bool {
	status, err := cn.receive(buf)
	return err == nil && checkReply(o, status, buf.Bytes())
}

// checkReply compares a reply with the oracle: status 200 and, in
// order, one acceptable "verdict" per answer. JSON escapes every quote
// inside a string value, so the byte pattern only matches keys.
func checkReply(o *op, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	const key = `"verdict":"`
	n := 0
	for {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			break
		}
		body = body[i+len(key):]
		j := bytes.IndexByte(body, '"')
		if j < 0 || n >= len(o.want) || verdictOf(string(body[:j]))&o.want[n] == 0 {
			return false
		}
		body = body[j:]
		n++
	}
	return n == len(o.want)
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	var buf bytes.Buffer
	for {
		status, err := c.conns[0].roundTrip(readyzRequest, &buf)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 30s (last status %d, error %v)", status, err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		pause(200 * time.Microsecond)
	}
}

// heapAllocs reads the server's cumulative heap allocation count, the
// process_heap_allocs_total gauge /metrics refreshes on every scrape.
func (c *client) heapAllocs() (float64, error) {
	var buf bytes.Buffer
	status, err := c.conns[0].roundTrip(metricsRequest, &buf)
	if err != nil {
		return 0, fmt.Errorf("read /metrics: %w", err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/metrics answered %d", status)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "process_heap_allocs_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("/metrics has no process_heap_allocs_total")
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// loader drives one workload's request sequence against a server. The
// sequence position carries over from phase to phase.
type loader struct {
	c         *client
	seq       []*op
	next      atomic.Int64
	attempted atomic.Int64 // operations sent
	failed    atomic.Int64 // operations whose request failed or answered wrong
}

func (l *loader) take() *op { return l.seq[(l.next.Add(1)-1)%int64(len(l.seq))] }

func (l *loader) record(o *op, ok bool) {
	l.attempted.Add(int64(o.count()))
	if !ok {
		l.failed.Add(int64(o.count()))
	}
}

// closed runs a closed loop in slicesPerPhase slices of d, each followed
// by a reference probe, and returns its operations per second, unscaled
// and scaled by the host's speed over each slice, and the server's
// allocations per operation. /metrics is read while no load runs, so the
// allocation count covers the loop's requests.
func (l *loader) closed(ctx context.Context, hc *hostClock, d time.Duration) (raw, scaled, allocsPerOp float64, err error) {
	before, err := l.c.heapAllocs()
	if err != nil {
		return 0, 0, 0, err
	}
	var ops int64
	var took, nominal float64 // seconds, as measured and at nominal speed
	for s := 0; s < slicesPerPhase; s++ {
		n, elapsed := l.closedTrial(ctx, d)
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		speed, err := hc.speed(ctx)
		if err != nil {
			return 0, 0, 0, err
		}
		ops += n
		took += elapsed.Seconds()
		nominal += elapsed.Seconds() * speed
	}
	after, err := l.c.heapAllocs()
	if err != nil {
		return 0, 0, 0, err
	}
	if ops == 0 {
		return 0, 0, 0, errors.New("closed loop completed no operations")
	}
	return float64(ops) / took, float64(ops) / nominal, (after - before) / float64(ops), nil
}

// pipelineDepth is how many requests each connection keeps unanswered
// in the closed loop. With one, a connection's next request leaves only
// after its reply has woken the client, and the server idles meanwhile:
// on two cores that measured as 0.8 to 1.4 busy server cores from run to
// run, so ops_per_s tracked wakeup latency rather than capacity.
const pipelineDepth = 4

// closedTrial sends requests for dur: each connection sends its next
// request as soon as fewer than pipelineDepth are unanswered.
func (l *loader) closedTrial(ctx context.Context, dur time.Duration) (int64, time.Duration) {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, cn := range l.c.conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			var buf bytes.Buffer
			inflight := make([]*op, 0, pipelineDepth)
			for {
				for len(inflight) < pipelineDepth && ctx.Err() == nil && time.Now().Before(end) {
					o := l.take()
					if cn.send(o.req) != nil {
						l.record(o, false)
						break
					}
					inflight = append(inflight, o)
				}
				if len(inflight) == 0 {
					return
				}
				o := inflight[0]
				inflight = append(inflight[:0], inflight[1:]...)
				l.record(o, check(cn, o, &buf))
				done.Add(int64(o.count()))
			}
		}(cn)
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// pause sleeps in the kernel. On Linux the Go runtime's timers wake
// through epoll, whose timeout has millisecond resolution, so
// time.Sleep rounds a sub-millisecond sleep up to about 1ms; nanosleep
// overshoots only by the calling thread's timer slack.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is only shorter
}

// waitUntil sleeps until t. It does not spin: on a two-core host a
// spinning client takes the core the server's reply needs, which
// measured as up to one open-loop period of added latency.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		pause(d)
	}
}

// lowTimerSlack pins the calling goroutine to its thread and cuts the
// thread's timer slack from the default 50us to 1us, so nanosleep wakes
// on time. The returned func undoes the pinning.
func lowTimerSlack() func() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1000, 0) // failure leaves the default slack
	return runtime.UnlockOSThread
}

// openSample is one open-loop request: latency from its due time to the
// end of its reply, and how late after its due time it was sent.
type openSample struct {
	latency, lag time.Duration
}

// open runs an open loop: requests fall due at a fixed rate whether or
// not earlier ones were answered. One goroutine sends each request at
// its due time, round robin over the connections and pipelined behind
// any unanswered ones; a reader per connection takes the replies in
// order. Samples are returned in due order.
func (l *loader) open(ctx context.Context, rate float64, dur time.Duration) ([]openSample, error) {
	for _, cn := range l.c.conns {
		if cn.fd < 0 {
			if err := cn.dial(); err != nil {
				return nil, err
			}
		}
	}
	n := max(1, int(rate*dur.Seconds()))
	period := time.Duration(float64(time.Second) / rate)
	samples := make([]openSample, n)
	type pending struct {
		i   int
		o   *op
		due time.Time
	}
	conns := l.c.conns
	queues := make([]chan pending, len(conns))
	var broken atomic.Bool
	var wg sync.WaitGroup
	for k, cn := range conns {
		queues[k] = make(chan pending, n/len(conns)+1) // one slot per request the connection sends
		wg.Add(1)
		go func(cn *conn, q <-chan pending) {
			defer wg.Done()
			var buf bytes.Buffer
			var err error
			for p := range q {
				status := 0
				if err == nil { // after an error the stream is unusable
					status, err = cn.reply(&buf)
				}
				samples[p.i].latency = time.Since(p.due)
				l.record(p.o, err == nil && checkReply(p.o, status, buf.Bytes()))
			}
			if err != nil {
				broken.Store(true)
			}
		}(cn, queues[k])
	}
	func() {
		// Unpinned on return, the thread goes back to the runtime. A pinned
		// goroutine that exits takes its thread with it, and the death of
		// the thread that started depserve sends depserve its Pdeathsig.
		defer lowTimerSlack()()
		start := time.Now().Add(time.Millisecond)
		for i := 0; i < n && ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * period)
			waitUntil(due)
			samples[i].lag = time.Since(due)
			k, o := i%len(conns), l.take()
			if err := conns[k].write(o.req); err != nil {
				broken.Store(true)
				l.record(o, false)
				continue
			}
			queues[k] <- pending{i: i, o: o, due: due}
		}
	}()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if broken.Load() {
		l.c.close() // the next phase redials
	}
	return samples, ctx.Err()
}
