package forkoram

import "forkoram/internal/wal"

// WALStore is the journal durability substrate consumed by
// ServiceConfig.WAL: an append-only byte log with an explicit Sync
// barrier (see internal/wal.Store). The constructors below are the
// supported ways to obtain one from outside this module.
type WALStore = wal.Store

// NewWALMemStore returns an in-memory journal store: fast, with
// explicit crash semantics for tests, but nothing survives the
// process. It is also what ServiceConfig defaults to when WAL is nil.
func NewWALMemStore() WALStore { return wal.NewMemStore() }

// OpenWALFile opens (creating if absent) a file-backed journal store
// whose Sync barrier is fsync, so acknowledged Service writes survive
// a real process crash. The returned store holds the file open for the
// Service's lifetime; callers may close it after Service.Close via its
// Close method. The file holds every journaled write's address and
// payload in plaintext, so put it on trusted storage only, never next
// to the untrusted bucket medium.
func OpenWALFile(path string) (*wal.FileStore, error) { return wal.OpenFile(path) }
