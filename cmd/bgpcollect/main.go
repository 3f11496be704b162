// Bgpcollect is a route-server collector speaking BGP-4 over TCP that logs, stores and classifies what its peers send.
// The command is cli.Collect (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpcollect", cli.Collect) }
