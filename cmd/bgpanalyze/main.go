// Bgpanalyze classifies a collector log, a store query or a bgpserve query and prints the paper's tables and figures.
// The command is cli.Analyze (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpanalyze", cli.Analyze) }
