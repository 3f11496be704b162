package cli

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"instability/internal/collector"
	"instability/internal/netaddr"
)

// Dump is bgpdump: it prints a collector log in a human-readable,
// line-per-record form, in the spirit of the classic MRT dump tools. The
// query flags select records exactly as a store query does; -within widens
// -prefix to every prefix inside the block.
//
//	bgpdump -in maeeast.irtl.gz
//	bgpdump -in maeeast.irtl.gz -type W -peer 701
//	bgpdump -in maeeast.irtl.gz -prefix 192.42.113.0/24 -within
//	bgpdump -in maeeast.irtl.gz -from "1996-05-25 00:00" -to "1996-05-25 00:02"
func Dump(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("bgpdump", stderr)
	var (
		in      = fs.String("in", "", "input log file")
		within  = fs.Bool("within", false, "with -prefix: match any prefix inside the block")
		countIt = fs.Bool("c", false, "print only the matching record count")
	)
	spec := addQueryFlags(fs, typeFlag)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("missing -in")
	}
	// -within is the one predicate a store query has no form of: the query
	// leaves the prefix out and the covering check runs here.
	var block netaddr.Prefix
	if *within && spec.Prefix != "" {
		var err error
		if block, err = netaddr.ParsePrefix(spec.Prefix); err != nil {
			return usageError{err: err}
		}
		spec.Prefix = ""
	}
	r, _, err := openRecords(ctx, lg, *in, nil, nil, *spec)
	if err != nil {
		return err
	}
	defer r.Close()
	if block != (netaddr.Prefix{}) {
		r = filtered{r, func(rec *collector.Record) bool { return block.ContainsPrefix(rec.Prefix) }}
	}
	_, err = dumpRecords(ctx, r, stdout, nil, *countIt, 0)
	return err
}

// dumpRecords is the one record-printing loop, bgpdump's and bgpstore
// query's: it reads r to its end, or to limit records (0 = all), writing each
// to lw when it is set, else a bgpdump line to w — or, with countOnly, only
// the count at the end — and returns how many it read.
func dumpRecords(ctx context.Context, r collector.RecordReader, w io.Writer, lw *collector.Writer, countOnly bool, limit int) (int, error) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	next := cancellable(ctx, r)
	n := 0
	for limit == 0 || n < limit {
		rec, err := next.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		n++
		switch {
		case lw != nil:
			if err := lw.Write(rec); err != nil {
				return n, err
			}
		case !countOnly:
			fmt.Fprintln(bw, rec)
		}
	}
	if countOnly && lw == nil {
		fmt.Fprintln(bw, n)
	}
	return n, bw.Flush()
}
