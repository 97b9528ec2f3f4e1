GO ?= go

.PHONY: build test cover race test-race soak crashpoint fuzz vet check-once bench-smoke bench-check loc

build:
	$(GO) build ./...

test:
	$(GO) vet ./... && $(GO) test ./...

# Tier-1 once, with one cross-package cover profile (cover.out): what is
# built is run.
# It prints every non-test function no test reached (0.0% in
# `go tool cover -func`) and fails on one that NEVER_RUN does not list.
# `main` in a package main is exempt: each program's logic is in a tested
# run. A listed function that did run is printed as a note, not a
# failure, since a few functions run on some runs and not on others.
# An entry is <file>:<func>, or <file>:<Type>.<method> for a method.
# Methods an interface requires that no caller reaches through it:
# heap.Interface, fs.FileInfo, vfs.File and the bulk loader's
# workload.Txn.
NEVER_RUN = \
	internal/lsm/iterator.go:iterHeap.Push \
	internal/vfs/memfs.go:memHandle.Read \
	internal/vfs/memfs.go:memInfo.ModTime \
	internal/vfs/memfs.go:memInfo.Sys \
	internal/vfs/faultfs.go:faultFile.Name \
	internal/vfs/faultfs.go:faultFile.Read \
	internal/vfs/faultfs.go:faultFile.Truncate \
	internal/bench/run.go:loader.Get \
	internal/bench/run.go:loader.Rollback
# String methods, for %v in a debugger or a failure message.
NEVER_RUN += \
	internal/audit/history.go:Outcome.String \
	internal/enclave/enclave.go:Mode.String
# Run by bench-smoke, not by tier-1: the block-cache ablation
# (BenchmarkAblation_BlockCache, a root benchmark).
NEVER_RUN += \
	internal/bench/blockcache.go:RunBlockCacheAblation \
	internal/bench/blockcache.go:runBlockCacheArm \
	internal/bench/blockcache.go:PrintBlockCache
# The check over `go tool cover -func`: it names each 0.0% function by its
# file and receiver (read from the source line the profile points at).
define NEVER_RUN_AWK
BEGIN { n = split(listed, l, " "); for (i = 1; i <= n; i++) want[l[i]] = 1 }
$$NF == "0.0%" {
	split($$1, at, ":"); file = at[1]; sub(/^treaty\//, "", file)
	pkg = ""; line = ""
	for (i = 1; (getline s < file) > 0; i++) {
		if (s ~ /^package /) pkg = s
		if (i == at[2]) { line = s; break }
	}
	close(file)
	name = $$2
	if (match(line, /^func \([^)]*\)/)) {
		recv = substr(line, 7, RLENGTH - 7); sub(/\[.*/, "", recv); sub(/.*[ *]/, "", recv)
		name = recv "." name
	} else if (name == "main" && pkg == "package main") next
	fn = file ":" name
	if (fn in want) { seen[fn] = 1; print "never run (listed):  " fn }
	else { print "never run, NOT LISTED: " fn; bad++ }
}
END {
	for (fn in want) if (!(fn in seen)) print "note: listed in NEVER_RUN but ran this time (or is gone): " fn
	if (bad) { print "cover: " bad " non-test function(s) never run; test or delete them, or list them in NEVER_RUN with a reason"; exit 1 }
}
endef
export NEVER_RUN_AWK
cover:
	$(GO) test -coverpkg=treaty/... -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk -v listed="$(strip $(NEVER_RUN))" "$$NEVER_RUN_AWK"

# Race-detector pass over the request-lifecycle and fault-tolerance
# packages (the chaos soak runs its short script under -race).
race:
	$(GO) vet ./... && $(GO) test -race -short ./internal/erpc/... ./internal/twopc/... ./internal/chaos/...

# Race-detector pass over the observability layer and everything that
# feeds it (metrics registry and the conservation laws every Cluster.Stop
# checks, RPC, 2PC, the chaos soak), plus the
# filesystem fault layer, crash-point harness, and the storage engine
# with its block cache (concurrent Get/compaction/invalidation hammer),
# the durable log under it and the Clog, the cluster package (the
# counter-round budget of a full-security cluster), the experiment
# harness's closed-loop runner and packet-path rig (its wall-clock
# cluster panels skip under -short), and
# the rest of the request lifecycle: the wait primitive and scheduler,
# the counter client's rounds, the lock table and the shipper.
test-race:
	$(GO) test -race -short ./internal/obs/... ./internal/erpc/... ./internal/twopc/... ./internal/chaos/... ./internal/vfs/... ./internal/audit/... ./internal/durlog/... ./internal/lsm/... ./internal/core/... ./internal/bench/... ./internal/fibers/... ./internal/counter/... ./internal/txn/... ./internal/repl/...

# Every row of the soak table at full length, with per-round logs and
# each row's final metrics snapshot (DESIGN.md "Soak table" lists the
# rows). One row: go test -v -run TestChaosSoak/<row> ./internal/chaos/
# TREATY_SEED=<n> replays a row's seed.
soak:
	$(GO) test -v -run TestChaosSoak ./internal/chaos/

# Coverage-guided fuzzing of every externally-reachable decoder: erpc
# frames (plaintext + sealed), the replay cache, the counter-service
# request codec, the full 2PC protocol handler stack, the shard-map
# decode/verify path, and the durable log's replay loop. Go allows one
# -fuzz target per invocation, so each runs separately for FUZZTIME.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/erpc/
	$(GO) test -run '^$$' -fuzz FuzzReplayCache -fuzztime $(FUZZTIME) ./internal/erpc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeReq -fuzztime $(FUZZTIME) ./internal/counter/
	$(GO) test -run '^$$' -fuzz FuzzProtocolMessages -fuzztime $(FUZZTIME) ./internal/twopc/
	$(GO) test -run '^$$' -fuzz FuzzShardMapDecode -fuzztime $(FUZZTIME) ./internal/shardmap/
	$(GO) test -run '^$$' -fuzz FuzzReplStreamDecode -fuzztime $(FUZZTIME) ./internal/repl/
	$(GO) test -run '^$$' -fuzz FuzzLogReplay -fuzztime $(FUZZTIME) ./internal/durlog/

# Crash-point sweep: power-cut after every durable write site of a
# primary (WAL/SSTable/MANIFEST/counter/Clog) and of the backup mirror it
# ships to, at all three security levels, on counter files (a trusted
# value at recovery) and on immediate counters (none); reboot each image
# and check the recovery invariants, that stabilized counters never
# outrun the forced mirror, and that the mirror covers every acked group.
# One sweep per cell: TestCrashPoint runs it and asserts the single-node
# side, TestReplCrashPoint asserts the replication side of the same result.
crashpoint:
	$(GO) test -v -run 'TestCrashPoint|TestReplCrashPoint' ./internal/vfs/crashtest/

vet:
	$(GO) vet ./...

# The request lifecycle's mechanisms exist once each: the
# block-until-ready-or-deadline wait, parked on a fiber (fibers/wait.go),
# the exponential backoff (erpc/retry.go), the enqueue-N-wait-for-k
# send and wait (erpc/fanout.go) and the per-boot op-id seed (erpc/opid.go).
# This greps non-test code outside those files for what a hand-written
# copy would contain: the spin idiom, a Yield call outside the scheduler
# (a fiber that waits parks in fibers.Wait, it does not poll through
# yields), a polled StableToken.Ready (a token wait is durlog's
# StableToken.Await), a time.After in the packages that wait on requests
# or schedule fibers, a backoff doubling (erpc/retry.go holds the only one), and a
# rand.Read in a package that sends requests (the coordinator's
# transaction-id seed is the one other use). The scheduler (non-test
# internal/fibers/fibers.go) names no timer, sleep, time.After or Reset: an
# idle worker sleeps on its run queue until a fiber arrives. The same
# goes for the counter replica's persistence: it is a durlog client over
# vfs.FS, so non-test files of internal/counter import no "os" — a bare
# rewrite-and-rename of the state file cannot come back by the side door.
# And no node, harness of internal/bench, command or example builds a file
# counter: a mode's counter kind comes from core's policy table. The
# harness stores only to memory (no temp directory in non-test
# internal/bench), and a log's force is not an engine option (SyncWAL stays
# gone: every log a node acknowledges from forces each group).
# The replication mirror is a durlog client too (non-test internal/repl
# imports no "os"), a WAL record is read only by lsm's fold (nothing
# outside internal/lsm names its kinds or payload decoders), and no
# environment variable turns on debug prints (TREATY_DEBUG).
# A packet reaches its handler one way: internal/erpc starts one goroutine,
# the poller (a second one between the fabric and it would pay receive costs
# off the books), and the optional-interface and socket-transport names stay
# gone. A fiber runs on a reused carrier: non-test internal/fibers starts one
# goroutine, the carrier, so neither a goroutine per fiber nor a worker loop
# comes back. A TEE or network cost has one price list: nothing outside
# internal/enclave busy-waits, names the price table or builds one. A keyed
# operation has one body, Participant.op in internal/twopc/participant.go:
# a request off the wire and a coordinator's call on a key its node owns
# both run it, so its three engine calls appear nowhere else. So has a
# local effect of the commit protocol, Participant.local: every control
# message, off the wire or the coordinator's own leg, and a recovered
# decision are steps whose engine calls it performs, so Prepare,
# CommitPrepared, Commit and AbortPrepared on at.local appear
# nowhere else. The commit protocol's transition function,
# internal/twopc/step.go, is pure: it imports none of erpc, durlog, fibers
# or obs. A signed statement is signed once, by seal.MAC: no non-test file
# outside internal/seal calls hmac.New. A soak is a row of the table in internal/chaos: one
# test function runs a harness script, so a second one is a second soak
# loop. A node has one replication backup, recorded on its shard-map member
# and read through Map.BackupOf: no per-slot backup table (Backups[,
# SlotBackup) comes back. A conservation law lives with its counters: a
# package registers its own (obs.Registry's Law, Balance or AtMost, named
# "<pkg>.…", core's cross-package round law "core.…"), so no non-test file
# outside internal/<pkg> registers a "<pkg>." law, and the chaos harness's
# own law functions (nodeMetricLaws, logLaws, checkMetricLaws) stay gone.
# The paper harness has one front end, the root benchmarks (no
# cmd/treaty-bench directory comes back), and one metrics schema, the
# owning packages' own: a measurement carries its nodes' raw snapshots (the
# digest's NodeDigest, DigestSnapshot, CaptureMetrics and ReportJSON stay
# gone), and no non-test file of internal/bench or cmd names another
# package's metric or reads one by a literal name (METRIC_READ), except the
# block-cache ablation's two lsm.cache counters.
# A write set has one encoding, lsm.Batch: a transaction buffers into one
# and a migration chunk carries one, so the write-buffer arena, the
# enclave region and the chunk's own entry codec (NewArena, RegionEnclave,
# slotEntry, encodeSlotChunk) stay gone from every Go file. And a WAL
# record has one meaning, walFold.add: no other function has a case label
# for a prepare or outcome record.
# Buffers have one allocator, Go's: no internal/mempool directory comes
# back, no Go file imports it, and none of erpc.Config, lsm.Options,
# durlog.Hooks or twopc.ClogTuning has a Pool field.
# A commit's stabilization is decided once, in durlog: every commit waits
# on its token through StableToken.Await (its poll is durlog's own: no
# .Poll() call outside internal/durlog), no counter backend has a wait of
# its own (no WaitStable method but counter.Handle's, which is that same
# wait), no txn.Config knob turns the wait off (no WaitStable in
# internal/txn), and a sole writer commits through Commit (no
# CommitOnePhase method). A node fails its trusted counters with one call
# per backend (no trustedCtrs list), and a mode's RPC sealing is its
# storage level (no SealedRPC policy column).
# An in-doubt distributed transaction is decided once, by the stable Clog
# prefix: nothing aborts after a commit decision is appended (no
# abortLogged or cAbortLog), recovery never re-prepares (no cRedoVote or
# redo_prepare), and recovery and adoption are one event (no evAdopt).
# And it is resolved one way, by the prepared participant's status query:
# the coordinator logs no prepare record (no clogPrepare, ClogKindPrepare
# or cPrepareLog), keeps no dropped Clog tail (DroppedTail), and pushes
# nothing from recovery (no RecoverPending, evRecover or repush_ counter).
# A change's CHANGES.md entry stays readable: no "PR n" or "- **Issue N"
# entry is over 2,500 bytes.
# $(call BODY_ONCE,<calls>,<method>): the engine calls on at.local that
# <calls> names, one site each, appear in non-test code only in
# Participant.<method>.
BODY_ONCE = hits=$$(awk '/^func /{fn=$$0} /at\.local\.($(1))\(/{print FILENAME ":" FNR ": in " fn}' $$($(call ONCE_SRC,internal cmd examples))); \
	[ $$(printf '%s\n' "$$hits" | grep -c '^internal/twopc/participant\.go:[0-9]*: in func (p \*Participant) $(2)(') -eq $(words $(subst |, ,$(1))) ] && \
		[ $$(printf '%s\n' "$$hits" | grep -c .) -eq $(words $(subst |, ,$(1))) ] || { printf '%s\n' "$$hits"; fail=1; }
ONCE_SRC = find $(1) -name '*.go' ! -name '*_test.go' ! -path internal/fibers/wait.go ! -path internal/erpc/retry.go ! -path internal/erpc/opid.go
METRIC_READ = '"('"$$(ls internal | paste -sd'|' -)"'|storage)\.[a-z_]|\.(Counter|Gauge)\("|(Counters|Gauges|Histograms)\["'
check-once:
	@fail=0; \
	grep -n 'spins *% *64' $$($(call ONCE_SRC,internal)) && fail=1; \
	grep -n '\.Yield(' $$($(call ONCE_SRC,internal) ! -path 'internal/fibers/*') && fail=1; \
	grep -n '\.Ready()' $$($(call ONCE_SRC,internal) ! -path 'internal/fibers/*') && fail=1; \
	grep -n 'time\.After(' $$($(call ONCE_SRC,internal/erpc internal/twopc internal/counter internal/txn internal/fibers)) && fail=1; \
	grep -n 'backoff \*= 2' $$($(call ONCE_SRC,internal)) && fail=1; \
	grep -HnE 'time\.(NewTimer|Sleep|After)|\.Reset\(' internal/fibers/fibers.go && fail=1; \
	grep -n 'rand\.Read' $$($(call ONCE_SRC,internal/erpc internal/twopc internal/counter internal/repl)) | grep -v txSeed && fail=1; \
	grep -n '"os"' $$($(call ONCE_SRC,internal/counter)) && fail=1; \
	grep -n 'NewFileCounter' $$($(call ONCE_SRC,internal/core internal/bench cmd examples)) && fail=1; \
	grep -nE 'os\.MkdirTemp|TempDir\(' $$($(call ONCE_SRC,internal/bench)) && fail=1; \
	grep -n '"os"' $$($(call ONCE_SRC,internal/repl)) && fail=1; \
	grep -nE 'WALKind|DecodePreparePayload|DecodeOutcomePayload' $$($(call ONCE_SRC,internal cmd examples) ! -path 'internal/lsm/*') && fail=1; \
	grep -n 'TREATY_DEBUG' $$($(call ONCE_SRC,.)) && fail=1; \
	grep -nE 'Backups\[|SlotBackup' $$($(call ONCE_SRC,.)) && fail=1; \
	grep -nE 'nodeMetricLaws|logLaws|checkMetricLaws' $$(find . -name '*.go') && fail=1; \
	grep -nE 'NodeDigest|DigestSnapshot|CaptureMetrics|ReportJSON' $$(find . -name '*.go') && fail=1; \
	[ ! -e cmd/treaty-bench ] || { echo "cmd/treaty-bench: the root benchmarks are the paper figures' one front end"; fail=1; }; \
	grep -nE $(METRIC_READ) $$($(call ONCE_SRC,internal/bench cmd)) | grep -vE '^internal/bench/blockcache\.go:[0-9]+:[[:space:]]+res\.(Lookups|Hits) = s\.Counter\("lsm\.cache\.(lookups|hits)"\)$$' && fail=1; \
	laws=$$(grep -HnE '\.(Law|Balance|AtMost)\("[a-z]+\.' $$($(call ONCE_SRC,.)) | awk '{ p = $$0; sub(/.*\.(Law|Balance|AtMost)\("/, "", p); sub(/\..*/, "", p); if (index($$0, "./internal/" p "/") != 1) print }'); \
	[ -z "$$laws" ] || { printf '%s\n' "$$laws"; fail=1; }; \
	gos=$$(grep -nE '^[[:space:]]*go [a-zA-Z_(]' $$(find internal/erpc -name '*.go' ! -name '*_test.go')); \
	[ $$(printf '%s\n' "$$gos" | grep -c .) -eq 1 ] || { printf '%s\n' "$$gos"; fail=1; }; \
	gos=$$(grep -HnE '^[[:space:]]*go [a-zA-Z_(]' $$(find internal/fibers -name '*.go' ! -name '*_test.go')); \
	[ $$(printf '%s\n' "$$gos" | grep -c 'carry(') -eq 1 ] && [ $$(printf '%s\n' "$$gos" | grep -c .) -eq 1 ] || { printf '%s\n' "$$gos"; fail=1; }; \
	grep -nE 'PollPacket|ChannelTransport|PacketTransport|UDPTransport|SyncWAL' $$($(call ONCE_SRC,internal cmd examples)) && fail=1; \
	grep -nE 'Spin\(|spinWait|DefaultCosts|Costs\{' $$($(call ONCE_SRC,.) ! -path './internal/enclave/*') && fail=1; \
	$(call BODY_ONCE,Get|Put|Delete,op); \
	$(call BODY_ONCE,Prepare|CommitPrepared|Commit|AbortPrepared,local); \
	grep -nE '"treaty/internal/(erpc|durlog|fibers|obs)"' internal/twopc/step.go && fail=1; \
	grep -n 'hmac\.New' $$($(call ONCE_SRC,.) ! -path './internal/seal/*') && fail=1; \
	grep -nE 'NewArena|RegionEnclave|slotEntry|encodeSlotChunk' $$(find . -name '*.go') && fail=1; \
	[ ! -e internal/mempool ] || { echo "internal/mempool: Go's allocator is the one allocator"; fail=1; }; \
	grep -n '"treaty/internal/mempool"' $$(find . -name '*.go') && fail=1; \
	awk 'FNR == 1 { want = FILENAME ~ /erpc/ ? "Config" : FILENAME ~ /lsm/ ? "Options" : FILENAME ~ /durlog/ ? "Hooks" : "ClogTuning"; body = 0 } \
		$$0 ~ "^type " want " struct" { body = 1 } body && /^}/ { body = 0 } \
		body && /^[[:space:]]+([A-Za-z_]+,[[:space:]]*)*Pool[[:space:],]/ { print FILENAME ":" FNR ": " want " has a Pool field: " $$0; bad = 1 } \
		END { exit !bad }' internal/erpc/erpc.go internal/lsm/db.go internal/durlog/log.go internal/twopc/clog.go && fail=1; \
	grep -n '\.Poll()' $$($(call ONCE_SRC,.) ! -path './internal/durlog/*') && fail=1; \
	grep -nE 'func \([^)]*\) WaitStable\(' $$($(call ONCE_SRC,.) ! -path './internal/counter/counter.go') && fail=1; \
	grep -n 'WaitStable' $$($(call ONCE_SRC,internal/txn)) && fail=1; \
	grep -nE 'trustedCtrs|SealedRPC|(^|[^A-Za-z0-9_])CommitOnePhase' $$($(call ONCE_SRC,.)) && fail=1; \
	grep -nE 'abortLogged|cAbortLog|cRedoVote|redo_prepare|evAdopt|clogPrepare|ClogKindPrepare|cPrepareLog|RecoverPending|DroppedTail|evRecover|repush_' $$($(call ONCE_SRC,.)) && fail=1; \
	LC_ALL=C awk '/^(PR [0-9]+|- \*\*Issue [0-9]+)/ && length($$0) > 2500 { print "CHANGES.md:" FNR ": entry is " length($$0) " bytes, over 2,500"; bad = 1 } END { exit !bad }' CHANGES.md && fail=1; \
	awk '/^func /{fn=$$0} /case[^:]*walKind(Prepare|Outcome)/ && fn !~ /^func \(f \*walFold\) add\(/{print FILENAME ":" FNR ": " $$0; bad=1} END{exit !bad}' $$($(call ONCE_SRC,.)) && fail=1; \
	soaks=$$(awk '/^func Test/{fn=$$2} /\.Run\(/ && !/[^A-Za-z0-9_]t\.Run\(/{print FILENAME ": " fn}' internal/chaos/*_test.go | sort -u); \
	[ $$(printf '%s\n' "$$soaks" | grep -c .) -le 1 ] || { printf '%s\n' "$$soaks"; fail=1; }; \
	[ $$fail -eq 0 ] || { echo "check-once: the lines above re-implement a mechanism that exists once (request lifecycle, durable log, WAL fold, mode policy, harness storage, packet path, price list, keyed-op body, local-effect body, pure commit step, signed-statement MAC, soak loop, member backup, conservation law, paper front end, metrics schema, fiber carrier, write-set encoding, allocator, stable wait, counter failure, in-doubt rule); call the shared one"; exit 1; }

# One-iteration benchmark smoke: the read panel must be non-vacuous (it
# b.Fatals on zero cache hits), the write-heavy panel must show the
# Clog group-commit pipeline actually batching (it b.Fatals when Clog
# appends no longer outnumber syncs), and the replication
# panel must actually ship groups to a backup (it b.Fatals on zero
# acked ships or any degrade).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAblation_BlockCache|BenchmarkAblation_WritePathGroupCommit|BenchmarkAblation_Replication' -benchtime=1x .

# The benchmark module (benchmark/, judged by BENCHMARK.json) imports
# internal packages but is outside the root build, so an internal API
# change can break it silently: vet and test it against this tree.
bench-check:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# Non-test Go lines per package directory (sub-packages are listed on
# their own), the yardstick for "net deletion" acceptance criteria.
loc:
	@for d in $$(find cmd internal -type d | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat 2>/dev/null | wc -l); \
		[ $$n -gt 0 ] && printf '%6d %s\n' $$n $$d; \
	done; true
