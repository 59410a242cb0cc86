package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into the program: set-up, a run, or a cache
// replay.  Times are nanoseconds since the log started; every span's
// parent is the invocation itself (ID 0).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the invocation's spans in memory until write.
type spanLog struct {
	epoch time.Time
	spans []span
	notes map[string]float64
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), notes: map[string]float64{}}
}

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name, StartNS: time.Since(l.epoch).Nanoseconds()})
	return len(l.spans) - 1
}

// end closes the span and returns its duration in seconds.
func (l *spanLog) end(i int) float64 {
	s := &l.spans[i]
	s.EndNS = time.Since(l.epoch).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}

// note records a derived figure next to the spans.
func (l *spanLog) note(name string, v float64) { l.notes[name] = v }

// write stores the spans and notes as one JSON document at path, and
// prof, when non-empty, at profPath.
func (l *spanLog) write(path string, prof []byte, profPath string) error {
	data, err := json.MarshalIndent(struct {
		Spans []span             `json:"spans"`
		Notes map[string]float64 `json:"notes"`
	}{l.spans, l.notes}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	if len(prof) > 0 {
		if err := os.WriteFile(profPath, prof, 0o644); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	return nil
}
