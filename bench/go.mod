module applab/bench

go 1.22

require applab v0.0.0

replace applab => ../
