module remac/benchmark

go 1.22

require remac v0.0.0

replace remac => ../
