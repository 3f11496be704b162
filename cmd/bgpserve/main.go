// Bgpserve serves an irtlstore to many concurrent readers over HTTP: JSON, NDJSON and IRTQ record streams (IRTL logs).
// The command is cli.Serve (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpserve", cli.Serve) }
