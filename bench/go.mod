module demsort/bench

go 1.24

require demsort v0.0.0

replace demsort => ../
