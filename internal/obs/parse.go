package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseText strictly parses a Prometheus text exposition: every line
// must be a well-formed # HELP / # TYPE header or a sample, every
// sample's family must have been declared by a # TYPE line first, and
// no series may repeat. It returns the samples keyed by their full
// series identity (name plus label block exactly as written) — the
// shape the workload engine diffs for its scrape deltas and the
// -check-metrics CI gate verifies.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	typed := make(map[string]Kind)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, typed); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
			continue
		}
		series, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		if _, ok := typed[familyOf(series)]; !ok {
			return nil, fmt.Errorf("obs: line %d: sample %s has no preceding # TYPE", lineNo, series)
		}
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("obs: line %d: duplicate series %s", lineNo, series)
		}
		out[series] = value
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return out, nil
}

// parseComment validates a # line and records # TYPE declarations.
func parseComment(line string, typed map[string]Kind) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		var k Kind
		switch fields[3] {
		case "counter":
			k = KindCounter
		case "gauge":
			k = KindGauge
		case "histogram":
			k = KindHistogram
		default:
			return fmt.Errorf("unknown TYPE %q", fields[3])
		}
		if _, dup := typed[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		typed[fields[2]] = k
	}
	return nil
}

// parseSample splits one sample line into its series identity and
// value.
func parseSample(line string) (series string, value float64, err error) {
	// The value follows the last space outside the label block.
	end := len(line)
	if i := strings.LastIndexByte(line, '}'); i >= 0 {
		end = i + 1
		if end >= len(line) || line[end] != ' ' {
			return "", 0, fmt.Errorf("malformed sample %q", line)
		}
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", 0, fmt.Errorf("malformed sample %q (no value)", line)
		}
		end = sp
	}
	series, rest := line[:end], strings.TrimPrefix(line[end:], " ")
	if rest == "" || strings.ContainsRune(rest, ' ') {
		return "", 0, fmt.Errorf("malformed sample %q (want one value, no timestamp)", line)
	}
	if err := validateSeries(series); err != nil {
		return "", 0, err
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value %q: %w", rest, err)
	}
	return series, v, nil
}

// validateSeries checks the metric name and the label block grammar.
func validateSeries(series string) error {
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name = series[:i]
		block := series[i:]
		if !strings.HasSuffix(block, "}") {
			return fmt.Errorf("unterminated label block in %q", series)
		}
		if err := validateLabels(block[1 : len(block)-1]); err != nil {
			return fmt.Errorf("%w in %q", err, series)
		}
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	return nil
}

// validateLabels checks a comma-separated k="v" list (v may contain
// escaped quotes).
func validateLabels(s string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || !validMetricName(s[:eq]) {
			return fmt.Errorf("bad label key")
		}
		rest := s[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		// Find the closing quote, skipping escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value")
		}
		s = rest[i+1:]
		if s == "" {
			return nil
		}
		if s[0] != ',' {
			return fmt.Errorf("bad label separator")
		}
		s = s[1:]
		if s == "" {
			return fmt.Errorf("trailing label comma")
		}
	}
	return nil
}

// familyOf strips the label block and the histogram sample suffixes,
// mapping a series back to its # TYPE family name.
func familyOf(series string) string {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

// MissingSeries reports which of the wanted family names have no
// sample in the parsed exposition — the -check-metrics verification.
// A family matches when any series of it (plain, labeled, or a
// histogram's _count) is present.
func MissingSeries(samples map[string]float64, want []string) []string {
	fams := make(map[string]bool, len(samples))
	for series := range samples {
		fams[familyOf(series)] = true
	}
	var missing []string
	for _, w := range want {
		if !fams[w] {
			missing = append(missing, w)
		}
	}
	sort.Strings(missing)
	return missing
}
