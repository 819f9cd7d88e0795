module slim/bench

go 1.22

require slim v0.0.0

replace slim => ../
