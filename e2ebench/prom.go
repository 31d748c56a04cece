package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Exposition is one scrape of a Prometheus text-format endpoint: every
// sample keyed by its series, name{k="v",...} with labels sorted by key.
// Histograms appear as their _bucket, _sum and _count series.
type Exposition map[string]float64

// parseProm reads the Prometheus text exposition format (version 0.0.4):
// comment and blank lines are skipped, every other line is a series and its
// value, optionally followed by a timestamp.
func parseProm(r io.Reader) (Exposition, error) {
	out := make(Exposition)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		key, rest, err := parseSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value after %s", line, key)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}

// parseSeries splits a sample line into its canonical series key and the
// text after the series.
func parseSeries(text string) (key, rest string, err error) {
	end := strings.IndexAny(text, "{ \t")
	if end < 0 {
		return "", "", fmt.Errorf("no value in %q", text)
	}
	name := text[:end]
	if text[end] != '{' {
		return name, text[end:], nil
	}
	labels := map[string]string{}
	i := end + 1
	for {
		for i < len(text) && (text[i] == ' ' || text[i] == ',') {
			i++
		}
		if i < len(text) && text[i] == '}' {
			i++
			break
		}
		eq := strings.IndexByte(text[i:], '=')
		if eq < 0 || i+eq+1 >= len(text) || text[i+eq+1] != '"' {
			return "", "", fmt.Errorf("bad label in %q", text)
		}
		lname := strings.TrimSpace(text[i : i+eq])
		i += eq + 2
		var val strings.Builder
		for ; i < len(text) && text[i] != '"'; i++ {
			if text[i] == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(text[i])
				}
				continue
			}
			val.WriteByte(text[i])
		}
		if i >= len(text) {
			return "", "", fmt.Errorf("unterminated label value in %q", text)
		}
		i++ // closing quote
		labels[lname] = val.String()
	}
	return seriesKey(name, labels), text[i:], nil
}

// seriesKey is the canonical key of a series: labels sorted by name.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Get returns one series' value (0 when absent); labels are name, value
// pairs.
func (e Exposition) Get(name string, labels ...string) float64 {
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	return e[seriesKey(name, m)]
}

// Sum adds up every series of a metric name, whatever its labels.
func (e Exposition) Sum(name string) float64 {
	total := 0.0
	for k, v := range e {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// Delta returns e minus before, series by series: the counts a phase added
// between two scrapes.
func (e Exposition) Delta(before Exposition) Exposition {
	out := make(Exposition, len(e))
	for k, v := range e {
		out[k] = v - before[k]
	}
	return out
}
