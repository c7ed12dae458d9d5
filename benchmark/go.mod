module hermes/benchmark

go 1.24

require hermes v0.0.0

replace hermes => ../
