package main

import (
	_ "embed"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	blindbox "repro"
	"repro/internal/obs"
)

//go:embed rules/rules6.rules
var rules6Text string

// parseRules6 parses the benchmark's ruleset.
func parseRules6() (*blindbox.Ruleset, error) { return blindbox.ParseRules("rules6", rules6Text) }

// stack is the protocol configuration a workload runs on.
type stack struct {
	core      blindbox.Config
	secondary bool
}

// traceSinks are the in-memory span sinks of a traced live round, one per
// party, installed through the public ConnConfig.Trace / MiddleboxConfig.Trace
// fields. A nil *traceSinks means tracing is off.
type traceSinks struct {
	client, server, mb obs.CollectSink
}

// deployment is one live three-party setup on 127.0.0.1: a rule generator,
// a middlebox in front of a server listener, and the endpoint configuration
// clients dial with. With direct set there is no middlebox and clients dial
// the server itself (the baseline the middlebox.* ratios divide by).
type deployment struct {
	mb        *blindbox.Middlebox
	srvLn     net.Listener
	mbLn      net.Listener
	dialAddr  string
	clientCfg blindbox.ConnConfig
	newMB     time.Duration

	notified atomic.Int64 // primary (non-secondary) OnAlert deliveries
	wg       sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

func (d *deployment) fail(err error) {
	d.mu.Lock()
	d.errs = append(d.errs, err)
	d.mu.Unlock()
}

// deploy signs rules6, builds the middlebox (unless direct), opens the
// listeners and starts serving. handle runs once per accepted server-side
// connection, on its own goroutine; an error it returns is a failed
// operation.
func deploy(st stack, direct bool, tr *traceSinks, handle func(*blindbox.Conn) error) (*deployment, error) {
	rg, err := blindbox.NewRuleGenerator("BenchRG")
	if err != nil {
		return nil, err
	}
	rs, err := parseRules6()
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	epCfg := blindbox.ConnConfig{Core: st.core, RG: blindbox.RGMaterial{TagKey: rg.TagKey()}}
	d.clientCfg = epCfg
	srvCfg := epCfg
	if tr != nil {
		d.clientCfg.Trace = &tr.client
		srvCfg.Trace = &tr.server
	}

	if d.srvLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	d.dialAddr = d.srvLn.Addr().String()
	if !direct {
		mbCfg := blindbox.MiddleboxConfig{
			Ruleset:     rg.Sign(rs),
			RGPublicKey: rg.PublicKey(),
			Secondary:   st.secondary,
			OnAlert: func(a blindbox.Alert) {
				if !a.Secondary {
					d.notified.Add(1)
				}
			},
		}
		if tr != nil {
			mbCfg.Trace = &tr.mb
		}
		t0 := time.Now()
		if d.mb, err = blindbox.NewMiddlebox(mbCfg); err != nil {
			_ = d.srvLn.Close()
			return nil, err
		}
		d.newMB = time.Since(t0)
		if d.mbLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			_ = d.srvLn.Close()
			return nil, err
		}
		d.dialAddr = d.mbLn.Addr().String()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			// Serve returns the listener's close error at shutdown.
			_ = d.mb.Serve(d.mbLn, d.srvLn.Addr().String())
		}()
	}

	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			raw, err := d.srvLn.Accept()
			if err != nil {
				return
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				conn, err := blindbox.Server(raw, srvCfg)
				if err != nil {
					_ = raw.Close()
					d.fail(fmt.Errorf("server handshake: %w", err))
					return
				}
				if err := handle(conn); err != nil {
					d.fail(fmt.Errorf("server: %w", err))
				}
				_ = conn.Close()
			}()
		}
	}()
	return d, nil
}

// countingConn counts what the client writes to its socket — the bytes
// and Write calls wire_bytes_per_byte and socket_writes_per_app_write are
// made of.
type countingConn struct {
	net.Conn
	wireLen    atomic.Int64
	sockWrites atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wireLen.Add(int64(n))
	c.sockWrites.Add(1)
	return n, err
}

// dial opens one client connection: TCP connect plus the BlindBox handshake
// (hello and, behind a middlebox, §3.3 rule preparation on both legs).
func (d *deployment) dial() (*blindbox.Conn, *countingConn, error) {
	raw, err := net.DialTimeout("tcp", d.dialAddr, 10*time.Second)
	if err != nil {
		return nil, nil, err
	}
	cc := &countingConn{Conn: raw}
	conn, err := blindbox.Client(cc, d.clientCfg)
	if err != nil {
		_ = raw.Close()
		return nil, nil, err
	}
	return conn, cc, nil
}

// close shuts the deployment down, waits for every goroutine it started,
// and returns the errors server handlers reported.
func (d *deployment) close() []error {
	_ = d.srvLn.Close()
	if d.mbLn != nil {
		_ = d.mbLn.Close()
	}
	if d.mb != nil {
		_ = d.mb.Close()
	}
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.errs
}

// streamTagLen is the length of the tag every client stream starts with,
// so the server side knows which expected payload to check against.
const streamTagLen = 8

func streamTag(i int) []byte { return []byte(fmt.Sprintf("s%06d ", i)) }

// readStreamTag consumes a stream's tag and returns its index.
func readStreamTag(r io.Reader, buf []byte) (int, error) {
	if _, err := io.ReadFull(r, buf[:streamTagLen]); err != nil {
		return 0, err
	}
	var i int
	if _, err := fmt.Sscanf(string(buf[:streamTagLen]), "s%06d ", &i); err != nil {
		return 0, fmt.Errorf("bad stream tag %q", buf[:streamTagLen])
	}
	return i, nil
}

var errMismatch = errors.New("payload mismatch")
