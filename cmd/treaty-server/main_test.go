package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"treaty"
)

// startServer runs the server on a free port until the test ends and
// returns its address. The test fails if the shutdown — connections
// closed, cluster stopped, laws checked — returns an error.
func startServer(t *testing.T) string {
	t.Helper()
	args := []string{"-nodes", "3", "-mode", "scone-enc", "-listen", "127.0.0.1:0", "-dir", t.TempDir()}
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, func(a net.Addr) { addr <- a }) }()
	select {
	case err := <-done:
		cancel()
		t.Fatalf("run returned before listening: %v", err)
	case a := <-addr:
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("run: %v", err)
			}
		})
		return a.String()
	}
	return ""
}

// dial connects a client to the server at addr.
func dial(t *testing.T, addr string) (*bufio.Scanner, net.Conn) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return bufio.NewScanner(conn), conn
}

// roundTrip sends one command and returns the reply line.
func roundTrip(t *testing.T, sc *bufio.Scanner, conn net.Conn, cmd string) string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		t.Fatalf("send %q: %v", cmd, err)
	}
	if !sc.Scan() {
		t.Fatalf("no reply to %q", cmd)
	}
	return sc.Text()
}

func TestServerProtocol(t *testing.T) {
	sc, conn := dial(t, startServer(t))

	steps := []struct {
		cmd  string
		want string
	}{
		{"GET x", "ERR no transaction (BEGIN first)"},
		{"BEGIN", "OK"},
		{"BEGIN", "ERR transaction already open"},
		{"PUT user:1 alice in wonderland", "OK"},
		{"GET user:1", "OK alice in wonderland"},
		{"GET nothere", "NOTFOUND"},
		{"DEL user:1", "OK"},
		{"GET user:1", "NOTFOUND"},
		{"PUT user:2 bob", "OK"},
		{"COMMIT", "OK committed"},
		{"BEGIN", "OK"},
		{"GET user:2", "OK bob"},
		{"GET user:1", "NOTFOUND"},
		{"ROLLBACK", "OK rolled back"},
		{"BOGUS", "ERR unknown command BOGUS"},
		{"QUIT", "OK bye"},
	}
	for _, s := range steps {
		got := roundTrip(t, sc, conn, s.cmd)
		if got != s.want {
			t.Fatalf("%q -> %q, want %q", s.cmd, got, s.want)
		}
	}
}

func TestServerRollbackOnDisconnect(t *testing.T) {
	addr := startServer(t)
	sc, conn := dial(t, addr)
	if got := roundTrip(t, sc, conn, "BEGIN"); got != "OK" {
		t.Fatal(got)
	}
	if got := roundTrip(t, sc, conn, "PUT ghost value"); got != "OK" {
		t.Fatal(got)
	}
	conn.Close() // abrupt disconnect: the server rolls the transaction back

	// A new connection to the same cluster must not see the uncommitted
	// write. Until the rollback lands its read may wait on the write's
	// lock, and time out.
	sc2, conn2 := dial(t, addr)
	if got := roundTrip(t, sc2, conn2, "BEGIN"); got != "OK" {
		t.Fatal(got)
	}
	if got := roundTrip(t, sc2, conn2, "GET ghost"); !strings.HasPrefix(got, "NOTFOUND") && !strings.HasPrefix(got, "ERR") {
		t.Fatalf("uncommitted write visible: %q", got)
	}
	roundTrip(t, sc2, conn2, "ROLLBACK")
}

func TestParseMode(t *testing.T) {
	cases := map[string]treaty.SecurityMode{
		"rocksdb":    treaty.ModeRocksDB,
		"native":     treaty.ModeNativeTreaty,
		"native-enc": treaty.ModeNativeTreatyEnc,
		"scone":      treaty.ModeSconeNoEnc,
		"scone-enc":  treaty.ModeSconeEnc,
		"STAB":       treaty.ModeSconeEncStab,
	}
	for in, want := range cases {
		got, err := parseMode(in)
		if err != nil || got != want {
			t.Errorf("parseMode(%q) = %v/%v, want %v", in, got, err, want)
		}
	}
	if _, err := parseMode("nonsense"); err == nil {
		t.Error("unknown mode must error")
	}
}
