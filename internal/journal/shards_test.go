package journal

import (
	"os"
	"testing"
)

func TestShardDirNaming(t *testing.T) {
	if got := ShardDirName(7); got != "shard-0007" {
		t.Fatalf("ShardDirName(7) = %q", got)
	}
	if got := ShardDirName(12345); got != "shard-12345" {
		t.Fatalf("ShardDirName(12345) = %q", got)
	}

	base := t.TempDir()
	for _, id := range []int{3, 0, 11} {
		dir, err := ShardDir(base, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("ShardDir did not create %s: %v", dir, err)
		}
	}
}
