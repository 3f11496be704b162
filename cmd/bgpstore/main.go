// Bgpstore manages an irtlstore: ingest, query, compact, stats.
// The command is cli.Store (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpstore", cli.Store) }
