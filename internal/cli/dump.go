package cli

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"time"

	"instability/internal/collector"
	"instability/internal/netaddr"
)

// Dump is bgpdump: it prints a collector log in a human-readable,
// line-per-record form, in the spirit of the classic MRT dump tools. Filters
// select a peer AS, a prefix (exact or covering), a record type, or a time
// window.
//
//	bgpdump -in maeeast.irtl.gz
//	bgpdump -in maeeast.irtl.gz -type W -peer 701
//	bgpdump -in maeeast.irtl.gz -prefix 192.42.113.0/24 -within
//	bgpdump -in maeeast.irtl.gz -from "1996-05-25 00:00" -to "1996-05-25 00:02"
func Dump(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, _ := setup("bgpdump", stderr)
	var (
		in      = fs.String("in", "", "input log file")
		peer    = fs.Uint("peer", 0, "only records from this peer AS")
		prefix  = fs.String("prefix", "", "only records for this prefix")
		within  = fs.Bool("within", false, "with -prefix: match any prefix inside the block")
		typ     = fs.String("type", "", "only this record type: A, W, UP, DOWN")
		from    = fs.String("from", "", `start of time window ("2006-01-02 15:04")`)
		to      = fs.String("to", "", "end of time window")
		countIt = fs.Bool("c", false, "print only the matching record count")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("missing -in")
	}
	var pfx netaddr.Prefix
	if *prefix != "" {
		var err error
		if pfx, err = netaddr.ParsePrefix(*prefix); err != nil {
			return usageError{err: err}
		}
	}
	parseTime := func(s string) (time.Time, error) {
		if s == "" {
			return time.Time{}, nil
		}
		t, err := time.Parse("2006-01-02 15:04", s)
		if err != nil {
			return t, usagef("bad time %q: %v", s, err)
		}
		return t, nil
	}
	fromT, err := parseTime(*from)
	if err != nil {
		return err
	}
	toT, err := parseTime(*to)
	if err != nil {
		return err
	}

	r, _, err := collector.OpenAny(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	next := cancellable(ctx, r)
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	matched := 0
	for {
		rec, err := next.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if *peer != 0 && uint(rec.PeerAS) != *peer {
			continue
		}
		if *typ != "" && rec.Type.String() != *typ {
			continue
		}
		if *prefix != "" {
			if *within {
				if !pfx.ContainsPrefix(rec.Prefix) {
					continue
				}
			} else if rec.Prefix != pfx {
				continue
			}
		}
		if !fromT.IsZero() && rec.Time.Before(fromT) {
			continue
		}
		if !toT.IsZero() && !rec.Time.Before(toT) {
			continue
		}
		matched++
		if !*countIt {
			fmt.Fprintln(w, rec.String())
		}
	}
	if *countIt {
		fmt.Fprintln(w, matched)
	}
	return nil
}
