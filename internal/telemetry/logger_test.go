package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestLoggerJSONLines: an access-logger line is one JSON object holding
// exactly ts, level, msg and the given attributes, with ts in UTC
// RFC3339Nano, the level in lower case, and string values escaped so
// they round-trip.
func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLogger(&buf, slog.LevelDebug)
	id := NextRequestID()
	const tricky = "a\"b\\c\nd\te\x01"
	l.LogAttrs(context.Background(), slog.LevelInfo, "access",
		slog.String("req", id.String()),
		slog.String("route", "/v1/submit"),
		slog.String("tricky", tricky),
		slog.Int("status", 200),
		slog.Int64("bytes", 1234),
		slog.Float64("dur", (1500*time.Microsecond).Seconds()))

	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one newline-terminated line, got %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	want := map[string]any{
		"level": "info", "msg": "access", "req": id.String(), "route": "/v1/submit",
		"tricky": tricky, "status": float64(200), "bytes": float64(1234), "dur": 0.0015,
	}
	if len(m) != len(want)+1 { // + ts
		t.Errorf("fields = %v, want ts plus %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %#v, want %#v", k, m[k], v)
		}
	}
	ts, ok := m["ts"].(string)
	if !ok {
		t.Fatalf("ts missing: %s", line)
	}
	parsed, err := time.Parse(time.RFC3339Nano, ts)
	if err != nil {
		t.Fatalf("ts not RFC3339Nano: %v", err)
	}
	if _, off := parsed.Zone(); off != 0 || !strings.HasSuffix(ts, "Z") {
		t.Errorf("ts %q not in UTC", ts)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLogger(&buf, slog.LevelWarn)
	ctx := context.Background()
	if l.Enabled(ctx, slog.LevelInfo) {
		t.Error("info enabled at minimum level warn")
	}
	l.LogAttrs(ctx, slog.LevelDebug, "nope", slog.String("k", "v"))
	l.LogAttrs(ctx, slog.LevelInfo, "nope")
	if buf.Len() != 0 {
		t.Fatalf("below-minimum lines written: %q", buf.String())
	}
	l.LogAttrs(ctx, slog.LevelWarn, "yes")
	l.LogAttrs(ctx, slog.LevelError, "also")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"level":"warn"`) || !strings.Contains(lines[1], `"level":"error"`) {
		t.Fatalf("want one warn and one error line, got:\n%s", buf.String())
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NextRequestID(), NextRequestID()
	if a == b {
		t.Fatal("sequential request IDs collide")
	}
	s := a.String()
	if len(s) != 16 {
		t.Fatalf("ID %q not 16 hex digits", s)
	}
	for _, c := range s {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("ID %q has non-hex rune %q", s, c)
		}
	}
	// Same process prefix, consecutive sequence numbers.
	if uint64(a)>>32 != uint64(b)>>32 {
		t.Fatal("process prefix changed between IDs")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"loud", "", "information", "fatal"} {
		if _, err := ParseLevel(in); err == nil {
			t.Errorf("ParseLevel(%q) accepted", in)
		}
	}
}
