// Bgpsim runs a measurement scenario and writes the observed update stream as a collector log.
// The command is cli.Sim (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpsim", cli.Sim) }
