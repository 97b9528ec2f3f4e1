// Command treaty-server runs a Treaty cluster in one process and exposes
// a simple line-oriented TCP front end for interactive clients (any
// line client, e.g. nc 127.0.0.1 7654). The cluster — nodes, CAS, counter group, fabric — is
// the same in-process deployment the benchmarks use; the TCP front end
// plays the role of the paper's client machines.
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
	"flag"
	"fmt"
	"log"
	"net"
	"strings"

	"treaty"
)

func main() {
	log.SetFlags(0)
	nodes := flag.Int("nodes", 3, "cluster size")
	modeName := flag.String("mode", "stab", "security mode: rocksdb, native, native-enc, scone, scone-enc, stab")
	listen := flag.String("listen", "127.0.0.1:7654", "client listen address")
	dir := flag.String("dir", "", "storage directory (default: temp)")
	flag.Parse()

	mode, err := parseMode(*modeName)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("booting %d-node cluster in mode %q...", *nodes, mode)
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes:   *nodes,
		Mode:    mode,
		BaseDir: *dir,
	})
	if err != nil {
		log.Fatalf("booting cluster: %v", err)
	}
	defer cluster.Stop()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	log.Printf("serving clients on %s (protocol: BEGIN/GET/PUT/DEL/COMMIT/ROLLBACK)", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("accept: %v", err)
			return
		}
		go serve(cluster, conn)
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

// serve handles one client connection.
func serve(cluster *treaty.Cluster, conn net.Conn) {
	defer conn.Close()
	client, err := cluster.NewClient()
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return
	}
	defer client.Close()

	var tx *treaty.ClientTxn
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
			if tx != nil {
				_ = tx.TxnRollback()
			}
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
