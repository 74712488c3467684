module github.com/drs-repro/drs/benchmark

go 1.22

require github.com/drs-repro/drs v0.0.0

replace github.com/drs-repro/drs => ../
