module hades/bench

go 1.24

require hades v0.0.0

replace hades => ../
