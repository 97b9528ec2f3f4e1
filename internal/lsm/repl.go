package lsm

import "treaty/internal/durlog"

// ReplEntry is one WAL record as the Ship hook sees it. It is an alias,
// like NewFileCounter, kept for the frozen benchmark module.
type ReplEntry = durlog.Entry

// NewFileCounter is durlog.NewFileCounter.
var NewFileCounter = durlog.NewFileCounter
