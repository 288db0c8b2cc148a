package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"rtoffload/internal/rtime"
)

// ParseSpec parses the compact command-line fleet syntax used by the
// -fleet flags:
//
//	name[:key=value,...] ; name[:...] ; @group:cap=N[/D]
//
// Server entries are separated by ';'. Each names a server and lists
// comma-separated options: scale=N[/D] (response multiplier),
// extra=DURms|DURus (additive latency), rel=F (reliability in (0,1]),
// cap=N[/D] (occupancy capacity), weight=N[/D] (group coupling
// weight), group=NAME. Entries starting with '@' declare a capacity
// group instead and take only cap=N[/D].
//
// Example: "edge:scale=1/2,rel=0.95,cap=3/4,group=radio;cloud:extra=5ms;@radio:cap=1"
func ParseSpec(spec string) (Fleet, error) {
	var f Fleet
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, opts, _ := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if strings.HasPrefix(name, "@") {
			g := Group{ID: strings.TrimPrefix(name, "@")}
			if err := parseGroupOpts(&g, opts); err != nil {
				return Fleet{}, err
			}
			f.Groups = append(f.Groups, g)
			continue
		}
		s := Server{ID: name}
		if err := parseServerOpts(&s, opts); err != nil {
			return Fleet{}, err
		}
		f.Servers = append(f.Servers, s)
	}
	if err := f.Validate(); err != nil {
		return Fleet{}, err
	}
	return f, nil
}

func parseGroupOpts(g *Group, opts string) error {
	for _, kv := range splitOpts(opts) {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "cap":
			n, d, err := parseRat(v)
			if err != nil {
				return fmt.Errorf("fleet spec: group %q: %w", g.ID, err)
			}
			g.CapNum, g.CapDen = n, d
		default:
			return fmt.Errorf("fleet spec: group %q: unknown option %q", g.ID, k)
		}
	}
	return nil
}

func parseServerOpts(s *Server, opts string) error {
	for _, kv := range splitOpts(opts) {
		k, v, _ := strings.Cut(kv, "=")
		var err error
		switch k {
		case "scale":
			s.ScaleNum, s.ScaleDen, err = parseRat(v)
		case "extra":
			s.Extra, err = parseDuration(v)
		case "rel":
			if s.Reliability, err = strconv.ParseFloat(v, 64); err == nil && s.Reliability == 0 {
				err = fmt.Errorf("reliability %q outside (0,1]", v) // 0 would read as unset: fully reliable
			}
		case "cap":
			s.CapNum, s.CapDen, err = parseRat(v)
		case "weight":
			s.WeightNum, s.WeightDen, err = parseRat(v)
		case "group":
			s.Group = v
		default:
			err = fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return fmt.Errorf("fleet spec: server %q: %w", s.ID, err)
		}
	}
	return nil
}

func splitOpts(opts string) []string {
	opts = strings.TrimSpace(opts)
	if opts == "" {
		return nil
	}
	parts := strings.Split(opts, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseRat parses "N" or "N/D" into a rational pair. A zero
// denominator is rejected: the pair 0/0 would read as unset.
func parseRat(v string) (num, den int64, err error) {
	ns, ds, ok := strings.Cut(v, "/")
	if num, err = strconv.ParseInt(ns, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad rational %q", v)
	}
	den = 1
	if ok {
		if den, err = strconv.ParseInt(ds, 10, 64); err != nil || den == 0 {
			return 0, 0, fmt.Errorf("bad rational %q", v)
		}
	}
	return num, den, nil
}

// parseDuration parses "Nms" or "Nus" into a Duration.
func parseDuration(v string) (rtime.Duration, error) {
	switch {
	case strings.HasSuffix(v, "ms"):
		n, err := strconv.ParseInt(strings.TrimSuffix(v, "ms"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q", v)
		}
		return rtime.FromMillis(n), nil
	case strings.HasSuffix(v, "us"):
		n, err := strconv.ParseInt(strings.TrimSuffix(v, "us"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q", v)
		}
		return rtime.FromMicros(n), nil
	}
	return 0, fmt.Errorf("bad duration %q (use ms or us suffix)", v)
}
