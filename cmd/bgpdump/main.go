// Bgpdump prints a collector log one record per line, with peer, prefix, type and time filters.
// The command is cli.Dump (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpdump", cli.Dump) }
