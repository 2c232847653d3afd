package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Event is one structured log record as stored in the ring and shipped
// over /debug/events. Attribute values are pre-rendered to strings so a
// snapshot never aliases live engine state.
type Event struct {
	Seq       uint64            `json:"seq"`
	Time      time.Time         `json:"time"`
	Level     string            `json:"level"`
	Subsystem string            `json:"subsystem"`
	Message   string            `json:"msg"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// EventLog is the structured event log: a fixed-capacity newest-first
// ring fed by per-subsystem `log/slog` loggers, recording Info and
// above. A nil *EventLog is valid: loggers built from it discard
// everything at zero cost beyond the Enabled check.
type EventLog struct {
	mu   sync.Mutex
	seq  uint64 // under mu, so Seq order always matches ring order
	buf  []Event
	next int
	n    int
}

// EventLogSize is the event ring a database keeps for /debug/events.
const EventLogSize = 256

// NewEventLog returns a ring holding the last n events (n ≤ 0 selects
// EventLogSize).
func NewEventLog(n int) *EventLog {
	if n <= 0 {
		n = EventLogSize
	}
	return &EventLog{buf: make([]Event, n)}
}

// Logger returns a slog logger whose records land in the ring tagged
// with the given subsystem. Safe on a nil EventLog (discards).
func (l *EventLog) Logger(subsystem string) *slog.Logger {
	return slog.New(&ringHandler{log: l, subsystem: subsystem})
}

// publish appends the event to the ring. Seq is assigned under the
// same lock that orders ring inserts, so sequence numbers never
// disagree with ring order.
func (l *EventLog) publish(ev Event) {
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.buf[l.next] = ev
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot returns the recorded events, most recent first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// ringHandler adapts the ring to slog.Handler. Attribute values are
// rendered to strings at Handle time.
type ringHandler struct {
	log       *EventLog
	subsystem string
	attrs     []slog.Attr // pre-bound via WithAttrs
	group     string
}

func (h *ringHandler) Enabled(_ context.Context, level slog.Level) bool {
	return h.log != nil && level >= slog.LevelInfo
}

func (h *ringHandler) Handle(_ context.Context, r slog.Record) error {
	l := h.log
	if l == nil {
		return nil
	}
	ev := Event{
		Time:      r.Time,
		Level:     r.Level.String(),
		Subsystem: h.subsystem,
		Message:   r.Message,
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	add := func(a slog.Attr, group string) {
		if ev.Attrs == nil {
			ev.Attrs = make(map[string]string, r.NumAttrs()+len(h.attrs))
		}
		key := a.Key
		if group != "" {
			key = group + "." + key
		}
		ev.Attrs[key] = a.Value.Resolve().String()
	}
	// Pre-bound attrs carry their group qualification from WithAttrs
	// time (attrs bound before a WithGroup are outside the group).
	for _, a := range h.attrs {
		add(a, "")
	}
	r.Attrs(func(a slog.Attr) bool {
		add(a, h.group)
		return true
	})
	l.publish(ev)
	return nil
}

func (h *ringHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = append([]slog.Attr(nil), h.attrs...)
	for _, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		nh.attrs = append(nh.attrs, a)
	}
	return &nh
}

func (h *ringHandler) WithGroup(name string) slog.Handler {
	nh := *h
	if name != "" {
		if nh.group != "" {
			nh.group += "." + name
		} else {
			nh.group = name
		}
	}
	return &nh
}
