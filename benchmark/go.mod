module saspar/benchmark

go 1.22

require saspar v0.0.0

replace saspar => ../
