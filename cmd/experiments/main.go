// Experiments regenerates every table and figure of the paper plus the mechanism experiments.
// The command is cli.Experiments (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("experiments", cli.Experiments) }
