// Bgpreplay replays a recorded log, or a store query, as a live BGP speaker to a collector.
// The command is cli.Replay (internal/cli); its doc comment has the usage.
package main

import "instability/internal/cli"

func main() { cli.Main("bgpreplay", cli.Replay) }
