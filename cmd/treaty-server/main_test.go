package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"treaty"
)

// dialServer boots a cluster + listener and returns a connected client.
func dialServer(t *testing.T) (*bufio.Scanner, net.Conn) {
	t.Helper()
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes:   3,
		Mode:    treaty.ModeSconeEnc,
		BaseDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cluster.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(cluster, conn)
		}
	}()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	return sc, conn
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
	sc, conn := dialServer(t)

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
	sc, conn := dialServer(t)
	if got := roundTrip(t, sc, conn, "BEGIN"); got != "OK" {
		t.Fatal(got)
	}
	if got := roundTrip(t, sc, conn, "PUT ghost value"); got != "OK" {
		t.Fatal(got)
	}
	conn.Close() // abrupt disconnect: the open transaction is abandoned

	// A new connection must not see the uncommitted write once the
	// abandoned transaction is reclaimed; immediately it may still hold
	// locks, so retry briefly.
	sc2, conn2 := dialServer(t)
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
