package telemetry

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// NewAccessLogger returns the logger that writes the server's access
// line: log/slog's JSON handler, one object per line, with the record
// time under "ts" as RFC3339Nano UTC and the level in lower case
// ("info"). Lines below min are dropped. This is the one place that
// knows the line format.
func NewAccessLogger(w io.Writer, min slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: min,
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			switch a.Key {
			case slog.TimeKey:
				if a.Value.Kind() == slog.KindTime {
					return slog.Time("ts", a.Value.Time().UTC())
				}
			case slog.LevelKey:
				if lv, ok := a.Value.Any().(slog.Level); ok {
					return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
				}
			}
			return a
		},
	}))
}

// ParseLevel parses a level name as accepted on -log-level flags:
// debug, info, warn (or warning), and error, in any case.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

func hexDigit(b byte) byte {
	if b < 10 {
		return '0' + b
	}
	return 'a' + b - 10
}

// RequestID identifies one HTTP request in the access log: a random 32-bit process prefix (so IDs from
// different server instances do not collide in merged logs) plus a
// 32-bit sequence number, rendered as 16 hex digits.
type RequestID uint64

var (
	reqSeq    atomic.Uint64
	reqPrefix = func() uint64 {
		var b [4]byte
		if _, err := cryptorand.Read(b[:]); err != nil {
			// Fall back to the clock; uniqueness within the process
			// still holds via the sequence number.
			return uint64(time.Now().UnixNano()) << 32
		}
		return uint64(binary.BigEndian.Uint32(b[:])) << 32
	}()
)

// NextRequestID returns a fresh process-unique request ID.
func NextRequestID() RequestID {
	return RequestID(reqPrefix | (reqSeq.Add(1) & 0xffffffff))
}

// String renders the ID as 16 lowercase hex digits.
func (id RequestID) String() string {
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexDigit(byte(id & 0xf))
		id >>= 4
	}
	return string(buf[:])
}
