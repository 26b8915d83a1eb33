package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestModelFlags(t *testing.T) {
	var m modelFlags
	if err := m.Set("speck5=models/speck5.gob"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("gimli=g.gob"); err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0].name != "speck5" || m[0].path != "models/speck5.gob" {
		t.Fatalf("parsed %+v", m)
	}
	if got := m.String(); got != "speck5=models/speck5.gob,gimli=g.gob" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "noequals", "=path", "name="} {
		if err := m.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestURLFlags(t *testing.T) {
	var u urlFlags
	if err := u.Set("http://127.0.0.1:9001/"); err != nil {
		t.Fatal(err)
	}
	if err := u.Set("https://replica-b:9002"); err != nil {
		t.Fatal(err)
	}
	if len(u) != 2 || u[0] != "http://127.0.0.1:9001" {
		t.Fatalf("parsed %+v (trailing slash should be trimmed)", u)
	}
	if got := u.String(); got != "http://127.0.0.1:9001,https://replica-b:9002" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "127.0.0.1:9001", "ftp://x"} {
		if err := u.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// replicaDefaults mirrors the flag defaults so validateFlags cases
// only state what they override.
func replicaDefaults() options {
	return options{
		addr: ":8080", maxBatch: 256, maxDelay: 2 * time.Millisecond,
		workers: 2, queue: 256, timeout: 5 * time.Second, drain: 10 * time.Second,
		ledgerBatch: 64, ledgerDelay: 500 * time.Millisecond,
		replication: 2, vnodes: 64, probeInterval: time.Second, failAfter: 2,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mod     func(*options)
		set     []string
		wantErr string // "" = accept
	}{
		{name: "replica defaults ok"},
		{name: "bad max-batch", mod: func(o *options) { o.maxBatch = 0 }, wantErr: "max-batch"},
		{name: "bad workers", mod: func(o *options) { o.workers = -1 }, wantErr: "workers"},
		{name: "bad queue", mod: func(o *options) { o.queue = 0 }, wantErr: "queue"},
		{name: "anchor without ledger", mod: func(o *options) { o.anchorPath = "a.anchor" }, wantErr: "-anchor requires -ledger"},
		{name: "ledger with anchor ok", mod: func(o *options) { o.ledgerPath = "l.log"; o.anchorPath = "a.anchor" }},
		{name: "ledger-batch without ledger", set: []string{"ledger-batch"}, wantErr: "require -ledger"},
		{name: "bad ledger-batch", mod: func(o *options) { o.ledgerPath = "l.log"; o.ledgerBatch = 0 }, set: []string{"ledger-batch"}, wantErr: "ledger-batch"},
		{name: "bad ledger-delay", mod: func(o *options) { o.ledgerPath = "l.log"; o.ledgerDelay = 0 }, set: []string{"ledger-delay"}, wantErr: "ledger-delay"},
		{name: "replica flag outside router mode", set: []string{"replica"}, wantErr: "only applies to -router"},
		{name: "peer flag outside router mode", set: []string{"peer"}, wantErr: "only applies to -router"},
		{
			name: "router ok",
			mod:  func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"} },
		},
		{
			name:    "router without replicas",
			mod:     func(o *options) { o.router = true },
			wantErr: "at least one -replica",
		},
		{
			name:    "router rejects model flag",
			mod:     func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"} },
			set:     []string{"model"},
			wantErr: "only applies to replica mode",
		},
		{
			name:    "router rejects ledger flag",
			mod:     func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"} },
			set:     []string{"ledger"},
			wantErr: "only applies to replica mode",
		},
		{
			name:    "router bad replication",
			mod:     func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"}; o.replication = 0 },
			wantErr: "replication",
		},
		{
			name:    "router bad vnodes",
			mod:     func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"}; o.vnodes = 0 },
			wantErr: "vnodes",
		},
		{
			name:    "router bad probe interval",
			mod:     func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"}; o.probeInterval = 0 },
			wantErr: "probe-interval",
		},
		{
			name:    "router bad fail-after",
			mod:     func(o *options) { o.router = true; o.replicas = urlFlags{"http://r1"}; o.failAfter = 0 },
			wantErr: "fail-after",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := replicaDefaults()
			if c.mod != nil {
				c.mod(&o)
			}
			set := map[string]bool{}
			for _, s := range c.set {
				set[s] = true
			}
			err := validateFlags(&o, set)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestSlowHeaderClosed: a client that sends part of a request line and
// stalls gets its connection closed once the header timeout passes,
// instead of holding it and a server goroutine forever. The test
// shortens the header timeout to stay fast.
func TestSlowHeaderClosed(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts (header %v, read %v, idle %v) differ from the package bounds",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	for _, d := range []time.Duration{readHeaderTimeout, readTimeout, idleTimeout} {
		if d <= 0 {
			t.Fatalf("connection bound %v is unset", d)
		}
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /hea")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("slow-header connection still open after 5s")
	}
}
