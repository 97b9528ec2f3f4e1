module treaty/benchmark

go 1.22

require treaty v0.0.0

replace treaty => ../
