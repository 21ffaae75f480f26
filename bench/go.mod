module tssim/bench

go 1.22

require tssim v0.0.0

replace tssim => ../
