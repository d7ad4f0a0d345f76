package journal

import (
	"fmt"
	"os"
)

// Per-shard journal naming. A sharded service keeps one journal
// directory per shard under a common base so a shard's crash-recovery
// state travels as a unit: base/shard-0007/ holds everything shard 7
// needs to resume. The zero-padded width keeps lexical and numeric
// order identical, so directory listings read in shard order.

// ShardDirName returns the canonical directory name for a shard id,
// e.g. "shard-0007".
func ShardDirName(id int) string {
	return fmt.Sprintf("shard-%04d", id)
}

// ShardDir returns base/shard-NNNN, creating it (and base) if missing.
func ShardDir(base string, id int) (string, error) {
	dir := base + string(os.PathSeparator) + ShardDirName(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
