package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses a Prometheus text exposition payload into a flat
// sample map: full sample name (labels included, exactly as rendered) to
// value. It understands what WritePrometheus emits — HELP/TYPE comments,
// counter/gauge lines, histogram _bucket/_sum/_count triplets — which is
// also the subset every real exporter emits, so the chaos soak and the
// tests can scrape any conforming endpoint and hand the samples to
// serve.CheckMetrics.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// The value is the last space-separated field; the sample name is
		// everything before it (label values may themselves contain spaces).
		cut := strings.LastIndexByte(text, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("obs: metrics line %d: no value in %q", line, text)
		}
		name := strings.TrimSpace(text[:cut])
		v, err := strconv.ParseFloat(text[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: bad value in %q: %w", line, text, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("obs: metrics line %d: duplicate sample %q", line, name)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
