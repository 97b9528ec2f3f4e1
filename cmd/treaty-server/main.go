// Command treaty-server runs a Treaty cluster in one process and exposes
// a simple line-oriented TCP front end for interactive clients (any
// line client, e.g. nc 127.0.0.1 7654). The cluster — nodes, CAS, counter group, fabric — is
// the same in-process deployment the benchmarks use; the TCP front end
// plays the role of the paper's client machines. SIGINT or SIGTERM stops
// it: open transactions roll back, and the cluster stops and checks its
// conservation laws (a violation exits non-zero).
//
// Protocol (one command per line):
//
//	BEGIN                   start a transaction on this connection
//	GET <key>               read
//	PUT <key> <value>       write
//	DEL <key>               delete
//	COMMIT                  two-phase commit (+ stabilization)
//	ROLLBACK                abort
//	QUIT                    close the connection
//
// Responses: "OK", "OK <value>", "NOTFOUND", or "ERR <message>".
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"treaty"
)

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("treaty-server: %v", err)
	}
}

// run boots the cluster args describe and serves clients until ctx is
// done (SIGINT or SIGTERM in main). Then it closes the listener and every
// open connection, waits for their handlers and stops the cluster, which
// checks its conservation laws; Stop's error is run's. listening, if not
// nil, is given the bound address before the first client is accepted.
func run(ctx context.Context, args []string, listening func(net.Addr)) (err error) {
	fs := flag.NewFlagSet("treaty-server", flag.ContinueOnError)
	nodes := fs.Int("nodes", 3, "cluster size")
	modeName := fs.String("mode", "stab", "security mode: rocksdb, native, native-enc, scone, scone-enc, stab")
	listen := fs.String("listen", "127.0.0.1:7654", "client listen address")
	dir := fs.String("dir", "", "storage directory (default: temp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		return err
	}

	log.Printf("booting %d-node cluster in mode %q...", *nodes, mode)
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{Nodes: *nodes, Mode: mode, BaseDir: *dir})
	if err != nil {
		return fmt.Errorf("booting cluster: %w", err)
	}
	defer func() { err = errors.Join(err, cluster.Stop()) }()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	// Deferred in reverse: end the connections, wait for their handlers,
	// then stop the cluster.
	var handlers sync.WaitGroup
	defer handlers.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	context.AfterFunc(ctx, func() { ln.Close() })

	log.Printf("serving clients on %s (protocol: BEGIN/GET/PUT/DEL/COMMIT/ROLLBACK)", ln.Addr())
	if listening != nil {
		listening(ln.Addr())
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("shutting down")
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		// Cluster.NewClient is not safe for concurrent use, so each
		// client connects here, on the accept loop.
		client, err := cluster.NewClient()
		if err != nil {
			fmt.Fprintf(conn, "ERR %v\n", err)
			conn.Close()
			continue
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer context.AfterFunc(ctx, func() { conn.Close() })()
			serve(client, conn)
		}()
	}
}

// parseMode maps the flag to a security mode.
func parseMode(s string) (treaty.SecurityMode, error) {
	switch strings.ToLower(s) {
	case "rocksdb":
		return treaty.ModeRocksDB, nil
	case "native":
		return treaty.ModeNativeTreaty, nil
	case "native-enc":
		return treaty.ModeNativeTreatyEnc, nil
	case "scone":
		return treaty.ModeSconeNoEnc, nil
	case "scone-enc":
		return treaty.ModeSconeEnc, nil
	case "stab":
		return treaty.ModeSconeEncStab, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// serve handles one client connection, and closes it and its client.
func serve(client *treaty.Client, conn net.Conn) {
	defer conn.Close()
	defer client.Close()

	// A transaction still open when the connection ends is rolled back.
	var tx *treaty.ClientTxn
	defer func() {
		if tx != nil {
			_ = tx.TxnRollback()
		}
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	reply := func(format string, args ...any) {
		fmt.Fprintf(conn, format+"\n", args...)
	}
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		switch cmd {
		case "QUIT":
			reply("OK bye")
			return
		case "BEGIN":
			if tx != nil {
				reply("ERR transaction already open")
				continue
			}
			t, err := client.BeginTxn()
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			tx = t
			reply("OK")
		case "GET", "PUT", "DEL", "COMMIT", "ROLLBACK":
			if tx == nil {
				reply("ERR no transaction (BEGIN first)")
				continue
			}
			switch cmd {
			case "GET":
				if len(fields) != 2 {
					reply("ERR usage: GET <key>")
					continue
				}
				v, found, err := tx.TxnGet([]byte(fields[1]))
				switch {
				case err != nil:
					reply("ERR %v", err)
				case !found:
					reply("NOTFOUND")
				default:
					reply("OK %s", v)
				}
			case "PUT":
				if len(fields) < 3 {
					reply("ERR usage: PUT <key> <value>")
					continue
				}
				value := strings.Join(fields[2:], " ")
				if err := tx.TxnPut([]byte(fields[1]), []byte(value)); err != nil {
					reply("ERR %v", err)
					continue
				}
				reply("OK")
			case "DEL":
				if len(fields) != 2 {
					reply("ERR usage: DEL <key>")
					continue
				}
				if err := tx.TxnDelete([]byte(fields[1])); err != nil {
					reply("ERR %v", err)
					continue
				}
				reply("OK")
			case "COMMIT":
				err := tx.TxnCommit()
				tx = nil
				if err != nil {
					reply("ERR %v", err)
					continue
				}
				reply("OK committed")
			case "ROLLBACK":
				err := tx.TxnRollback()
				tx = nil
				if err != nil {
					reply("ERR %v", err)
					continue
				}
				reply("OK rolled back")
			}
		default:
			reply("ERR unknown command %s", cmd)
		}
	}
}
