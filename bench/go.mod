module sama/bench

go 1.22

require sama v0.0.0

replace sama => ../
