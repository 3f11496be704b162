module instability/cmd/bgpbench

go 1.22

require instability v0.0.0

replace instability => ../..
