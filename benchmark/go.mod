module softstate/benchmark

go 1.22

require softstate v0.0.0

replace softstate => ../
