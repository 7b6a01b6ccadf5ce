package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Level orders event severities. The zero value is LevelInfo so a
// zero-configured logger emits info and above.
type Level int8

const (
	// LevelDebug is for high-volume diagnostics (poll waits, renews).
	LevelDebug Level = iota - 1
	// LevelInfo is for lifecycle events (lease grants, shard completion).
	LevelInfo
	// LevelWarn is for recoverable anomalies (retries, stale leases).
	LevelWarn
	// LevelError is for failures surfaced to the operator.
	LevelError
)

// String returns the lowercase level name used in log lines.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// kvKind discriminates how a KV renders its value.
type kvKind uint8

const (
	kvString kvKind = iota
	kvInt
	kvDur
)

// KV is one key=value pair on an event. Values are held unboxed (a
// string or an int64) so building an event allocates nothing beyond the
// variadic slice, which escape analysis keeps on the stack for the
// common call shapes.
type KV struct {
	key  string
	str  string
	num  int64
	kind kvKind
}

// String pairs key with a string value.
func String(key, value string) KV { return KV{key: key, str: value, kind: kvString} }

// Int pairs key with an int value.
func Int(key string, value int) KV { return KV{key: key, num: int64(value), kind: kvInt} }

// Int64 pairs key with an int64 value.
func Int64(key string, value int64) KV { return KV{key: key, num: value, kind: kvInt} }

// Dur pairs key with a duration, rendered as fractional seconds with an
// "s" suffix (e.g. wait=0.25s).
func Dur(key string, d time.Duration) KV { return KV{key: key, num: int64(d), kind: kvDur} }

// Logger is a leveled, structured event log writing logfmt-style lines:
//
//	ts=2026-08-08T12:00:00.000Z level=info event=lease.grant lease=lease-1 shard=0/3
//
// A nil *Logger is valid and silent, so instrumented code calls Event
// unconditionally and disabled logging costs one nil check. Lines are
// assembled in a reusable buffer (strconv append discipline) under a
// mutex and flushed with a single Write, so concurrent events never
// interleave mid-line.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	now func() time.Time
	buf []byte
}

// NewLogger returns a logger writing events at or above min to w. A nil
// w returns a nil (silent) logger.
func NewLogger(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{w: w, min: min, now: time.Now, buf: make([]byte, 0, 256)}
}

// Event writes one structured event line. event should be a stable
// dotted name (e.g. "lease.grant", "submit.reject"); kvs follow in the
// order given.
func (l *Logger) Event(level Level, event string, kvs ...KV) {
	if l == nil || level < l.min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, "ts="...)
	b = l.now().UTC().AppendFormat(b, "2006-01-02T15:04:05.000Z")
	b = append(b, " level="...)
	b = append(b, level.String()...)
	b = append(b, " event="...)
	b = appendLogValue(b, event)
	for _, kv := range kvs {
		b = append(b, ' ')
		b = append(b, kv.key...)
		b = append(b, '=')
		switch kv.kind {
		case kvString:
			b = appendLogValue(b, kv.str)
		case kvInt:
			b = strconv.AppendInt(b, kv.num, 10)
		case kvDur:
			b = strconv.AppendFloat(b, time.Duration(kv.num).Seconds(), 'g', -1, 64)
			b = append(b, 's')
		}
	}
	b = append(b, '\n')
	l.buf = b
	l.w.Write(b)
}

// appendLogValue appends s, quoting it only when it contains characters
// that would break key=value tokenization.
func appendLogValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '"' || c == '=' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(b, s...)
}
