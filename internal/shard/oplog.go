package shard

import (
	"bufio"
	"errors"
	"io"
	"os"
	"sync"
)

// OpLog is a shard incarnation's durable operation journal: an
// append-only file of batch frames, one frame per acked batch, flushed
// before the batch's replies go out (the flush-on-sync rule). After a
// SIGKILL the next incarnation replays the surviving frames to rebuild
// its documents and its session watermarks, so a router retrying an
// acked-but-unanswered op is deduplicated across the crash.
//
// The log's unit is the frame, not the byte: a frame either recovers
// whole (its CRC held) or marks the end of usable history. Damage is
// torn-tail tolerated — RecoverOpLog truncates at the first bad frame so
// re-opened logs append from a clean boundary. The record lines inside
// each frame are opaque to this package; internal/collab encodes them on
// top: a first frame of snapshot records (E epoch, B edit base, S
// document, W session watermark — each group sorted, so equal state
// writes equal bytes), then one frame of A op records per acked batch.
// A log's size is bounded by its incarnation: every start truncates and
// re-snapshots, nothing compacts in between.
type OpLog struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	closed bool
	path   string
}

// ErrOpLogClosed is returned by Append/Flush after Close — the window in
// which a killed incarnation's zombie writers discover that the resumed
// incarnation owns the file now.
var ErrOpLogClosed = errors.New("shard: oplog closed")

// CreateOpLog truncates path and opens a fresh log (a new incarnation
// with snapshot-transferred or initial state writes its snapshot frame
// first).
func CreateOpLog(path string) (*OpLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &OpLog{f: f, w: bufio.NewWriterSize(f, 1<<16), path: path}, nil
}

// RecoverOpLog scans path, returning every intact frame's lines in
// append order, truncating the file at the first damaged frame, and
// reopening it for append. The returned error classifies any damage
// found (*FrameError wrapping ErrFrameTruncated/ErrFrameCRC/
// ErrFrameHeader) while the log itself is still usable — trailing damage
// is the expected SIGKILL artifact, not a failure.
func RecoverOpLog(path string) (*OpLog, [][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var (
		frames [][]string
		good   int64 // offset past the last intact frame
		damage error
	)
	cr := &countingReader{r: f}
	fr := NewFrameReader(bufio.NewReader(cr))
	for {
		lines, _, isFrame, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil || !isFrame {
			// A legacy line in an oplog is damage too: every record was
			// written framed, so bare bytes mean a torn or corrupt region.
			if err == nil {
				err = frameErrf(ErrFrameHeader, "unframed bytes in oplog")
			}
			damage = err
			break
		}
		frames = append(frames, append([]string(nil), lines...))
		good = cr.n - int64(fr.r.Buffered())
	}
	f.Close()
	if damage != nil {
		if err := os.Truncate(path, good); err != nil {
			return nil, nil, err
		}
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &OpLog{f: af, w: bufio.NewWriterSize(af, 1<<16), path: path}, frames, damage
}

// countingReader tracks how many bytes the decoder consumed from the
// file so recovery can truncate at the exact end of the last good frame.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Append buffers one frame of record lines. It does not hit the disk;
// call Flush before acking (flush-on-sync).
func (l *OpLog) Append(lines []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrOpLogClosed
	}
	frame, err := AppendFrame(nil, lines)
	if err != nil {
		return err
	}
	_, err = l.w.Write(frame)
	return err
}

// Flush pushes buffered frames to the file — the durability point an ack
// must not precede. (The in-process kill model closes the descriptor;
// fsync is not required for it, and the OS page cache covers a real
// SIGKILL of the process.)
func (l *OpLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrOpLogClosed
	}
	return l.w.Flush()
}

// Close flushes and closes the file. Further Append/Flush calls fail
// with ErrOpLogClosed — the fence that keeps a killed incarnation's
// stragglers from interleaving with the resumed incarnation's writes.
func (l *OpLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the log's file path.
func (l *OpLog) Path() string { return l.path }
